open Tp_kernel

type row = { mode : string; us_by_workload : (string * float) list }

type result = { platform : string; workloads : string list; rows : row list }

type workload = Idle | Write of int | Fetch of int

let page = Tp_hw.Defs.page_size

(* The receiver workloads whose residue the switch must clean up. *)
let workloads p =
  let l1d = p.Tp_hw.Platform.l1d.Tp_hw.Cache.size in
  let l1i = p.Tp_hw.Platform.l1i.Tp_hw.Cache.size in
  let llc = p.Tp_hw.Platform.llc.Tp_hw.Cache.size in
  [ ("Idle", Idle); ("L1-D", Write l1d); ("L1-I", Fetch l1i) ]
  @ (match p.Tp_hw.Platform.l2 with
    | Some g -> [ ("L2", Write g.Tp_hw.Cache.size) ]
    | None -> [])
  @
  match p.Tp_hw.Platform.arch with
  | Tp_hw.Platform.X86 -> [ ("L3", Write (llc / 2)) ]
  | Tp_hw.Platform.Arm -> [ ("L2(LLC)", Write (llc / 2)) ]

let body_of line w buf ctx =
  let sweep bytes touch =
    while true do
      for i = 0 to (bytes / line) - 1 do
        touch ctx (buf + (i * line))
      done
    done
  in
  match w with
  | Idle -> ()
  | Write bytes -> sweep bytes Uctx.write
  | Fetch bytes -> sweep bytes Uctx.fetch

let costs kind p w ~reps =
  let b = Scenario.boot kind p in
  let sys = b.Boot.sys in
  let wl_dom = b.Boot.domains.(0) in
  let idle_dom = b.Boot.domains.(1) in
  let bytes = match w with Idle -> page | Write n | Fetch n -> n in
  let buf = Boot.alloc_pages b wl_dom ~pages:(max 1 (bytes / page)) in
  let wl = Boot.spawn b wl_dom (body_of p.Tp_hw.Platform.line w buf) in
  let idle = Boot.spawn b idle_dom (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 wl;
  Sched.remove (System.sched sys) ~core:0 idle;
  let slice_cycles = Tp_hw.Platform.us_to_cycles p 1000.0 in
  Array.init reps (fun _ ->
      (* Run the workload for a slice, and time switching away from it
         to the idle domain. *)
      ignore (Exec.run_thread sys ~core:0 ~slice_cycles wl);
      (Domain_switch.switch sys ~core:0 ~to_:idle).Domain_switch.total)

let modes = [ Scenario.Raw; Scenario.Full_flush; Scenario.Protected_no_pad ]

let mode_label = function
  | Scenario.Raw -> "Raw"
  | Scenario.Full_flush -> "Full flush"
  | Scenario.Protected_no_pad -> "Protected"
  | k -> Scenario.name k

let run q p =
  let wls = workloads p in
  (* Flatten the mode x workload grid into independent cells (each
     boots its own system), fan out, regroup per mode. *)
  let units =
    List.concat_map (fun kind -> List.map (fun wl -> (kind, wl)) wls) modes
  in
  let measured =
    Tp_par.Pool.map_list units (fun _ (kind, (name, w)) ->
        (* The paper reports means, medians for the bimodal LLC case;
           the median is robust for both. *)
        let us =
          Array.map (Tp_hw.Platform.cycles_to_us p)
            (costs kind p w ~reps:(Quality.repeats q))
        in
        (kind, name, Tp_util.Stats.median us))
  in
  let rows =
    List.map
      (fun kind ->
        {
          mode = mode_label kind;
          us_by_workload =
            List.filter_map
              (fun (k, n, v) -> if k = kind then Some (n, v) else None)
              measured;
        })
      modes
  in
  { platform = p.Tp_hw.Platform.name; workloads = List.map fst wls; rows }
