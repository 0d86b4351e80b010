(* Fault injection: the fail-at-step-N driver, transactional rollback
   of kernel operations, the double-free guard, and the checkpointed
   measurement harness (crash consistency of the whole pipeline). *)

open Tp_kernel

let haswell = Tp_hw.Platform.haswell

let boot () =
  Boot.boot ~platform:haswell ~config:(Config.protected_ haswell) ~domains:2 ()

(* --------------------------------------------------------------- *)
(* The systematic sweep: every standard operation x every injection
   point it crosses x every fault kind must propagate the error and
   leave every global invariant intact. *)

let test_fail_at_each_step platform () =
  let cases = Tp_fault_driver.Driver.standard_cases ~platform in
  Alcotest.(check bool) "has cases" true (cases <> []);
  List.iter
    (fun (c : Tp_fault_driver.Driver.case) ->
      let outcomes = Tp_fault_driver.Driver.fail_at_each c in
      Alcotest.(check bool)
        (c.Tp_fault_driver.Driver.c_name ^ " crosses injection points")
        true (outcomes <> []);
      List.iter
        (fun (o : Tp_fault_driver.Driver.outcome) ->
          let label =
            Printf.sprintf "%s: fault %s at %s:%d consistent (raised=%s, [%s])"
              o.Tp_fault_driver.Driver.o_case
              (Types.error_to_string o.Tp_fault_driver.Driver.o_error)
              o.Tp_fault_driver.Driver.o_point
              o.Tp_fault_driver.Driver.o_occurrence
              (Option.value ~default:"<nothing>"
                 o.Tp_fault_driver.Driver.o_raised)
              (String.concat "; " o.Tp_fault_driver.Driver.o_violations)
          in
          Alcotest.(check bool) label true (Tp_fault_driver.Driver.ok o))
        outcomes)
    cases

let test_enumerate_clone_steps () =
  let cases = Tp_fault_driver.Driver.standard_cases ~platform:haswell in
  let clone_case =
    List.find (fun c -> c.Tp_fault_driver.Driver.c_name = "clone") cases
  in
  let steps = Tp_fault_driver.Driver.enumerate clone_case in
  let names = List.map fst steps in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("clone crosses " ^ p) true (List.mem p names))
    [ "clone.validate"; "clone.copy"; "clone.idle"; "clone.commit"; "asid.alloc" ]

(* --------------------------------------------------------------- *)
(* Targeted rollback / roll-forward checks. *)

let test_clone_rollback_releases_asid () =
  let b = boot () in
  let sys = b.Boot.sys in
  let kmem =
    Retype.retype_kernel_memory b.Boot.domains.(0).Boot.dom_pool
      ~platform:haswell
  in
  let asids0 = System.free_asid_count sys in
  let frames0 = Invariant.user_frames b in
  let kernels0 = List.length (System.kernels sys) in
  Tp_fault.Fault.arm ~point:"clone.commit"
    (Types.Kernel_error Types.Insufficient_untyped);
  (match Clone.clone sys ~core:0 ~src:b.Boot.master ~kmem with
  | _ -> Alcotest.fail "clone should have failed"
  | exception Types.Kernel_error Types.Insufficient_untyped -> ());
  Tp_fault.Fault.disarm ();
  Alcotest.(check int) "ASID released on rollback" asids0
    (System.free_asid_count sys);
  Alcotest.(check int) "no kernel registered" kernels0
    (List.length (System.kernels sys));
  Invariant.check_exn ~expect_user_frames:frames0 b

let test_destroy_rolls_forward () =
  let b = boot () in
  let sys = b.Boot.sys in
  let kmem =
    Retype.retype_kernel_memory b.Boot.domains.(0).Boot.dom_pool
      ~platform:haswell
  in
  let cap = Clone.clone sys ~core:0 ~src:b.Boot.master ~kmem in
  Clone.set_int sys ~image:cap ~irq:5;
  let frames0 = Invariant.user_frames b in
  Tp_fault.Fault.arm ~point:"destroy.ipi"
    (Types.Kernel_error Types.Zombie_object);
  (match Clone.destroy sys ~core:0 cap with
  | () -> Alcotest.fail "destroy should have re-raised the fault"
  | exception Types.Kernel_error Types.Zombie_object -> ());
  Tp_fault.Fault.disarm ();
  (* The recovery path completed the teardown: no zombie left
     registered, the IRQ released, the invariants whole. *)
  Invariant.check_exn ~expect_user_frames:frames0 b;
  Alcotest.(check bool) "cloned kernel unregistered" true
    (List.for_all
       (fun ki -> ki.Types.ki_state = Types.Ki_active)
       (System.kernels sys))

let test_double_free_guard () =
  let b = boot () in
  let sys = b.Boot.sys in
  let a = System.alloc_asid sys in
  System.free_asid sys a;
  Alcotest.check_raises "second free rejected"
    (Types.Kernel_error Types.Double_free) (fun () -> System.free_asid sys a)

let test_kernel_error_printer () =
  Alcotest.(check string) "registered Printexc printer"
    "Kernel_error(double free)"
    (Printexc.to_string (Types.Kernel_error Types.Double_free))

let test_txn_rollback_order () =
  let log = ref [] in
  (match
     Txn.run (fun txn ->
         Txn.defer txn (fun () -> log := 1 :: !log);
         Txn.defer txn (fun () -> log := 2 :: !log);
         failwith "boom")
   with
  | () -> Alcotest.fail "should have raised"
  | exception Failure _ -> ());
  (* Reverse order: the last-deferred undo runs first. *)
  Alcotest.(check (list int)) "undos in reverse order" [ 1; 2 ] !log;
  let log2 = ref [] in
  Txn.run (fun txn -> Txn.defer txn (fun () -> log2 := 1 :: !log2));
  Alcotest.(check (list int)) "no undo on success" [] !log2

(* --------------------------------------------------------------- *)
(* Checkpointed harness: chunking must not change the collected
   dataset, and budgets must degrade gracefully. *)

let channel_pair () =
  let b = Tp_core.Scenario.boot Tp_core.Scenario.Raw haswell in
  let chan = Tp_attacks.Cache_channels.l1d in
  let sender, receiver = chan.Tp_attacks.Cache_channels.prepare b in
  (b, sender, receiver, chan.Tp_attacks.Cache_channels.symbols)

let collect_with_chunk chunk =
  let b, sender, receiver, symbols = channel_pair () in
  let spec =
    {
      (Tp_attacks.Harness.default_spec haswell) with
      Tp_attacks.Harness.samples = 50;
      symbols;
      warmup = 2;
      checkpoint_slices = chunk;
    }
  in
  let rng = Tp_util.Rng.create ~seed:42 in
  Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng

let test_checkpointing_is_bit_identical () =
  (* One chunk covering the whole run vs. many small checkpoints. *)
  let mono = collect_with_chunk 100_000 in
  let chunked = collect_with_chunk 7 in
  Alcotest.(check bool) "monolithic not degraded" false
    mono.Tp_attacks.Harness.degraded;
  Alcotest.(check bool) "chunked not degraded" false
    chunked.Tp_attacks.Harness.degraded;
  let m = mono.Tp_attacks.Harness.data in
  let c = chunked.Tp_attacks.Harness.data in
  Alcotest.(check (array int)) "identical inputs" m.Tp_channel.Mi.input
    c.Tp_channel.Mi.input;
  Alcotest.(check bool) "bit-identical outputs" true
    (m.Tp_channel.Mi.output = c.Tp_channel.Mi.output)

let test_budget_degrades_gracefully () =
  let b, sender, receiver, symbols = channel_pair () in
  let spec =
    {
      (Tp_attacks.Harness.default_spec haswell) with
      Tp_attacks.Harness.samples = 200;
      symbols;
      warmup = 2;
      checkpoint_slices = 8;
      budget = { Tp_attacks.Harness.max_cycles = Some 1; max_wall_s = None };
    }
  in
  let rng = Tp_util.Rng.create ~seed:7 in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  Alcotest.(check bool) "degraded" true r.Tp_attacks.Harness.degraded;
  Alcotest.(check (option string)) "reason" (Some "cycle budget exhausted")
    r.Tp_attacks.Harness.degraded_reason;
  Alcotest.(check bool) "partial data"
    true
    (Array.length r.Tp_attacks.Harness.data.Tp_channel.Mi.input < 200)

let test_harness_recovers_from_injected_fault () =
  let b, sender, receiver, symbols = channel_pair () in
  let spec =
    {
      (Tp_attacks.Harness.default_spec haswell) with
      Tp_attacks.Harness.samples = 30;
      symbols;
      warmup = 2;
      checkpoint_slices = 4;
    }
  in
  let rng = Tp_util.Rng.create ~seed:3 in
  let run () =
    Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng
  in
  (* No kernel ops run during slices in this synthetic pair, so no
     injection point fires mid-loop: the loop must still complete
     cleanly with a dormant registry. *)
  let r = run () in
  Alcotest.(check int) "no faults to recover" 0
    r.Tp_attacks.Harness.recovered_faults;
  Alcotest.(check bool) "complete" false r.Tp_attacks.Harness.degraded;
  Alcotest.(check bool) "checkpointed" true (r.Tp_attacks.Harness.checkpoints > 1)

(* Collect 200 samples of a real channel pair with a one-shot kernel
   fault armed at [point]:[hit].  The fault must fire and the harness
   must recover it, dropping the faulted chunk's samples, not the
   rest of the collection. *)
let check_fault_recovered ~point ~hit b (sender, receiver) symbols =
  let spec =
    {
      (Tp_attacks.Harness.default_spec haswell) with
      Tp_attacks.Harness.samples = 200;
      symbols;
    }
  in
  Tp_fault.Fault.arm ~point ~hit (Types.Kernel_error Types.Insufficient_untyped);
  let r =
    Fun.protect ~finally:Tp_fault.Fault.disarm (fun () ->
        let r =
          Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec
            ~rng:(Tp_util.Rng.create ~seed:1)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s:%d fired" point hit)
          true (Tp_fault.Fault.fired ());
        r)
  in
  let status = Tp_attacks.Harness.status_json r in
  Alcotest.(check bool) ("fault recovered: " ^ status) true
    (r.Tp_attacks.Harness.recovered_faults >= 1);
  Alcotest.(check bool) ("collection carried on: " ^ status) true
    (Array.length r.Tp_attacks.Harness.data.Tp_channel.Mi.input >= 150)

let test_harness_recovers_chunk_fault () =
  let b = Tp_core.Scenario.boot Tp_core.Scenario.Protected haswell in
  check_fault_recovered ~point:Tp_attacks.Harness.point_chunk ~hit:2 b
    (Tp_attacks.Kernel_chan.prepare b)
    Tp_attacks.Kernel_chan.symbols

let suite =
  [
    Alcotest.test_case "fail-at-each-step: all ops, all points, all faults"
      `Slow (test_fail_at_each_step haswell);
    Alcotest.test_case "enumerate lists clone's injection points" `Quick
      test_enumerate_clone_steps;
    Alcotest.test_case "clone rollback releases ASID and frames" `Quick
      test_clone_rollback_releases_asid;
    Alcotest.test_case "destroy rolls forward through faults" `Quick
      test_destroy_rolls_forward;
    Alcotest.test_case "free_asid double-free guard" `Quick
      test_double_free_guard;
    Alcotest.test_case "Kernel_error Printexc printer" `Quick
      test_kernel_error_printer;
    Alcotest.test_case "txn undo ordering" `Quick test_txn_rollback_order;
    Alcotest.test_case "checkpointed run is bit-identical" `Quick
      test_checkpointing_is_bit_identical;
    Alcotest.test_case "cycle budget degrades gracefully" `Quick
      test_budget_degrades_gracefully;
    Alcotest.test_case "harness checkpoint loop completes cleanly" `Quick
      test_harness_recovers_from_injected_fault;
    Alcotest.test_case "fail-at-each-step on sabre" `Slow
      (test_fail_at_each_step Tp_hw.Platform.sabre);
    Alcotest.test_case "harness recovers an injected chunk fault" `Quick
      test_harness_recovers_chunk_fault;
  ]
