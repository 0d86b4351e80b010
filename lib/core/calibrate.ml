type t = {
  worst_observed_cycles : int;
  pad_cycles : int;
  pad_us : float;
  trials : int;
}

let margin_pct = 25

(* Table 6's receivers on the unpadded protected system, each
   dirtying a different structure the switch must clean up. *)
let observe workloads ~trials_per_workload p ~record =
  List.iter
    (fun (_, w) ->
      Array.iter record
        (Exp_table6.costs Scenario.Protected_no_pad p w
           ~reps:trials_per_workload))
    workloads

(* The calibration set leaves out x86's L3 row: it stops at the
   largest private cache, and the L3 receiver's switch is left to the
   margin, which {!covers} checks. *)
let calibration_set p =
  List.filter (fun (name, _) -> name <> "L3") (Exp_table6.workloads p)

let switch_pad ?(trials_per_workload = 20) p =
  let worst = ref 0 in
  let trials = ref 0 in
  observe (calibration_set p) ~trials_per_workload p ~record:(fun c ->
      incr trials;
      if c > !worst then worst := c);
  let pad = !worst * (100 + margin_pct) / 100 in
  {
    worst_observed_cycles = !worst;
    pad_cycles = pad;
    pad_us = Tp_hw.Platform.cycles_to_us p pad;
    trials = !trials;
  }

let covers t p ~trials =
  let ok = ref true in
  observe (Exp_table6.workloads p) ~trials_per_workload:trials p
    ~record:(fun c -> if c > t.pad_cycles then ok := false);
  !ok
