(* Tests for scheduling contexts (MCS, Lyons et al. 2018) and their
   composition with time protection — the paper's §8 future work:
   "combining it with the recently added temporal integrity
   mechanisms". *)

open Tp_kernel

let haswell = Tp_hw.Platform.haswell

(* Raw config for the pure scheduling tests: protected-mode padding
   (~200k cycles per switch) would dwarf the budgets under test. *)
let boot () = Boot.boot ~platform:haswell ~config:Config.raw ~domains:2 ()

let mk_sc b dom ~budget ~period =
  let cap = Retype.retype_sched_context b.Boot.domains.(dom).Boot.dom_pool ~budget ~period in
  match cap.Types.target with
  | Types.Obj_sched_context sc -> sc
  | _ -> assert false

(* A body that spins, counting the cycles it actually receives. *)
let spinner counter ctx =
  try
    while true do
      Uctx.compute ctx 100;
      counter := !counter + 100
    done
  with Uctx.Preempted -> ()

let test_budget_caps_cpu_time () =
  let b = boot () in
  let sys = b.Boot.sys in
  let got = ref 0 in
  let tcb = Boot.spawn b b.Boot.domains.(0) (spinner got) in
  (* 30% budget: 30k cycles per 100k period. *)
  let sc = mk_sc b 0 ~budget:30_000 ~period:100_000 in
  Exec.bind_sched_context tcb sc;
  let t0 = System.now sys ~core:0 in
  Exec.run sys ~core:0 ~slice_cycles:50_000 ~until:(t0 + 1_000_000) ();
  let share = float_of_int !got /. 1_000_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "CPU share %.2f ~ 0.30 budget" share)
    true
    (share > 0.15 && share < 0.40)

let test_unbudgeted_thread_gets_the_rest () =
  (* MCS's temporal-integrity point: a budgeted high-priority thread
     cannot starve a lower-priority one. *)
  let b = boot () in
  let sys = b.Boot.sys in
  let hi_got = ref 0 and lo_got = ref 0 in
  let hi = Boot.spawn b b.Boot.domains.(0) ~prio:200 (spinner hi_got) in
  ignore (Boot.spawn b b.Boot.domains.(1) ~prio:10 (spinner lo_got));
  let sc = mk_sc b 0 ~budget:25_000 ~period:100_000 in
  Exec.bind_sched_context hi sc;
  let t0 = System.now sys ~core:0 in
  Exec.run sys ~core:0 ~slice_cycles:50_000 ~until:(t0 + 1_500_000) ();
  Alcotest.(check bool) "high-prio thread ran" true (!hi_got > 0);
  Alcotest.(check bool)
    (Printf.sprintf "low-prio not starved (hi %d, lo %d)" !hi_got !lo_got)
    true
    (!lo_got > !hi_got)

let test_without_sc_higher_prio_starves () =
  (* Control: without a scheduling context the high-priority spinner
     monopolises the core — the situation MCS exists to prevent. *)
  let b = boot () in
  let sys = b.Boot.sys in
  let hi_got = ref 0 and lo_got = ref 0 in
  ignore (Boot.spawn b b.Boot.domains.(0) ~prio:200 (spinner hi_got));
  ignore (Boot.spawn b b.Boot.domains.(1) ~prio:10 (spinner lo_got));
  let t0 = System.now sys ~core:0 in
  Exec.run sys ~core:0 ~slice_cycles:50_000 ~until:(t0 + 1_000_000) ();
  Alcotest.(check int) "low-prio starved" 0 !lo_got

let test_replenishment_resumes () =
  let b = boot () in
  let sys = b.Boot.sys in
  let got = ref 0 in
  let tcb = Boot.spawn b b.Boot.domains.(0) (spinner got) in
  let sc = mk_sc b 0 ~budget:20_000 ~period:60_000 in
  Exec.bind_sched_context tcb sc;
  let t0 = System.now sys ~core:0 in
  Exec.run sys ~core:0 ~slice_cycles:30_000 ~until:(t0 + 200_000) ();
  let first_window = !got in
  Exec.run sys ~core:0 ~slice_cycles:30_000 ~until:(t0 + 600_000) ();
  Alcotest.(check bool) "kept receiving budget after replenishments" true
    (!got > first_window)

let test_sc_destruction_unbinds () =
  let b = boot () in
  let cap =
    Retype.retype_sched_context b.Boot.domains.(0).Boot.dom_pool ~budget:10_000
      ~period:50_000
  in
  let sc =
    match cap.Types.target with Types.Obj_sched_context s -> s | _ -> assert false
  in
  let tcb = Boot.spawn b b.Boot.domains.(0) (fun _ -> ()) in
  Exec.bind_sched_context tcb sc;
  Objects.delete b.Boot.sys ~core:0 cap;
  Alcotest.(check bool) "thread unbound on destruction" true (tcb.Types.t_sc = None)

let test_mcs_composes_with_time_protection () =
  (* §8: budgets shorten slices but every boundary still runs the
     protected switch — so the flush channel stays closed when the
     sender runs under a scheduling context. *)
  let b = Tp_core.Scenario.boot Tp_core.Scenario.Protected haswell in
  let sys = b.Boot.sys in
  let sender0, receiver = Tp_attacks.Flush_chan.prepare Tp_attacks.Flush_chan.Offline b in
  let sender ctx sym = sender0 ctx sym in
  let spec =
    {
      (Tp_attacks.Harness.default_spec haswell) with
      Tp_attacks.Harness.samples = 200;
      symbols = Tp_attacks.Flush_chan.symbols;
    }
  in
  let rng = Tp_util.Rng.create ~seed:17 in
  (* Pre-bind a scheduling context to the sender by spawning the pair
     through the harness, then capping domain 0's threads. *)
  let samples =
    let s = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
    (* Cap every domain-0 thread and run a second dataset. *)
    let sc = mk_sc b 0 ~budget:(spec.Tp_attacks.Harness.slice_cycles / 2)
        ~period:spec.Tp_attacks.Harness.slice_cycles in
    List.iter
      (fun t -> Exec.bind_sched_context t sc)
      b.Boot.domains.(0).Boot.dom_threads;
    ignore (System.now sys ~core:0);
    ignore s;
    (Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng).data
  in
  let r = Tp_channel.Leakage.test ~rng samples in
  Alcotest.(check bool) "flush channel closed under MCS + TP" true
    (r.Tp_channel.Leakage.verdict <> Tp_channel.Leakage.Leak)

let suite =
  [
    Alcotest.test_case "budget caps CPU time" `Quick test_budget_caps_cpu_time;
    Alcotest.test_case "budgeted hi-prio cannot starve" `Quick
      test_unbudgeted_thread_gets_the_rest;
    Alcotest.test_case "control: no SC starves" `Quick
      test_without_sc_higher_prio_starves;
    Alcotest.test_case "replenishment resumes" `Quick test_replenishment_resumes;
    Alcotest.test_case "SC destruction unbinds" `Quick test_sc_destruction_unbinds;
    Alcotest.test_case "MCS composes with TP" `Slow
      test_mcs_composes_with_time_protection;
  ]
