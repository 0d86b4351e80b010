(* Record-once / replay-many: snapshot round-trip properties, replay
   latency/state equality against live execution, and harness-level
   bit-identity of replayed collections (the PR 10 contract). *)

open Tp_hw
open Tp_core

let haswell = Platform.haswell
let sabre = Platform.sabre

(* ---- snapshot / restore ----------------------------------------- *)

let warm m =
  for i = 0 to 99 do
    ignore
      (Machine.access m ~core:0 ~asid:1 ~vaddr:(i * 4096) ~paddr:(i * 4096)
         ~kind:Defs.Read ()
        : int)
  done

let test_snapshot_roundtrip () =
  List.iter
    (fun p ->
      let m = Machine.create p in
      warm m;
      let snap = Machine.snapshot m in
      let want = Machine.snapshot_digest snap in
      Alcotest.(check string)
        (p.Platform.name ^ ": state digest = snapshot digest")
        want (Machine.state_digest m);
      (* Perturbation must be visible (the clock alone guarantees it),
         and a restore must erase it bit-for-bit. *)
      ignore (Machine.clflush m ~core:0 ~paddr:0 : int);
      ignore
        (Machine.access m ~core:0 ~asid:2 ~vaddr:12345 ~paddr:12345
           ~kind:Defs.Write ()
          : int);
      Alcotest.(check bool)
        (p.Platform.name ^ ": perturbation changes the digest")
        true
        (Machine.state_digest m <> want);
      Machine.restore m snap;
      Alcotest.(check string)
        (p.Platform.name ^ ": restore round-trips bit-identically")
        want (Machine.state_digest m);
      (* Restore is idempotent (the torn-state recovery story). *)
      Machine.restore m snap;
      Alcotest.(check string)
        (p.Platform.name ^ ": re-restore is idempotent")
        want (Machine.state_digest m))
    [ haswell; sabre ]

let test_snapshot_wrong_platform_rejected () =
  let m = Machine.create haswell in
  let s = Machine.snapshot (Machine.create sabre) in
  Alcotest.check_raises "cross-platform restore rejected"
    (Invalid_argument
       "Machine.restore: snapshot of platform sabre applied to a haswell \
        machine") (fun () -> Machine.restore m s)

(* Random op streams, shared by the QCheck properties below.  Each op
   is encoded as (selector, a, b) and decoded into one Machine-API
   call; access walks read a root page-table line (and, for odd b, a
   leaf line) exactly the way Replay.replay issues them, so live and
   replayed walks hit the same lines. *)

let ops_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 1 120)
      (triple (int_bound 6) (int_bound 1_000_000) (int_bound 1_000_000)))

let line_of x = x land lnot 63

let decode (sel, a, b) =
  match sel with
  | 0 -> `Access (Defs.Read, a, line_of b, if b land 1 = 1 then line_of (b / 2) else -1)
  | 1 -> `Access (Defs.Write, a, line_of b, -1)
  | 2 -> `Access (Defs.Fetch, a, line_of b, -1)
  | 3 -> `Cond_branch (a, b land 1 = 1)
  | 4 -> `Jump (a, b)
  | 5 -> `Clflush (line_of a)
  | _ -> `Add_cycles (1 + (b mod 997))

let all_ways = lnot 0

(* One op on [core]; returns its latency. *)
let live_op m ~core op =
  match decode op with
  | `Access (kind, vaddr, root_pa, leaf_pa) ->
      Machine.access_pt m ~core ~asid:1 ~global:false ~llc_ways:all_ways
        ~root_pa ~leaf_pa ~vaddr ~paddr:vaddr ~kind
  | `Cond_branch (vaddr, taken) ->
      Machine.cond_branch m ~core ~asid:1 ~vaddr ~paddr:vaddr ~taken
  | `Jump (vaddr, target) ->
      Machine.jump m ~core ~asid:1 ~vaddr ~paddr:vaddr ~target
  | `Clflush paddr -> Machine.clflush m ~core ~paddr
  | `Add_cycles n ->
      Machine.add_cycles m ~core n;
      n

let run_live m ops = List.map (live_op m ~core:0) ops

let record ops =
  let r = Replay.create () in
  List.iter
    (fun op ->
      match decode op with
      | `Access (kind, vaddr, root_pa, leaf_pa) ->
          Replay.append_access r ~kind ~vaddr ~paddr:vaddr ~root_pa ~leaf_pa
      | `Cond_branch (vaddr, taken) ->
          Replay.append_cond_branch r ~vaddr ~paddr:vaddr ~taken
      | `Jump (vaddr, target) -> Replay.append_jump r ~vaddr ~paddr:vaddr ~target
      | `Clflush paddr -> Replay.append_clflush r ~paddr
      | `Add_cycles n -> Replay.append_add_cycles r n)
    ops;
  Replay.append_idle r;
  r

let qcheck_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot -> perturb -> restore is bit-identical"
    ~count:30
    QCheck.(pair ops_gen ops_gen)
    (fun (pre, perturb) ->
      let m = Machine.create haswell in
      ignore (run_live m pre : int list);
      let snap = Machine.snapshot m in
      ignore (run_live m perturb : int list);
      Machine.restore m snap;
      Machine.state_digest m = Machine.snapshot_digest snap)

let qcheck_replay_matches_live =
  QCheck.Test.make
    ~name:"replay reproduces live per-op latencies and final state" ~count:30
    ops_gen
    (fun ops ->
      let m_live = Machine.create haswell in
      let lats_live = run_live m_live ops in
      let m_rep = Machine.create haswell in
      let lats_rep = ref [] in
      let r = record ops in
      let res =
        Replay.replay m_rep ~core:0 ~asid:1 ~llc_ways:all_ways ~until:max_int
          ~on_latency:(fun l -> lats_rep := l :: !lats_rep)
          r
      in
      res = `Done_idle
      && List.rev !lats_rep = lats_live
      && Machine.state_digest m_rep = Machine.state_digest m_live)

let qcheck_replay_budget_stops =
  QCheck.Test.make ~name:"replay stops at the first op crossing the budget"
    ~count:30
    QCheck.(pair ops_gen (int_bound 10_000))
    (fun (ops, budget) ->
      let m = Machine.create haswell in
      let n = ref 0 in
      let r = record ops in
      let res =
        Replay.replay m ~core:0 ~asid:1 ~llc_ways:all_ways ~until:budget
          ~on_latency:(fun _ -> incr n)
          r
      in
      match res with
      | `Budget -> !n <= List.length ops && Machine.cycles m ~core:0 >= budget
      | `Done_idle -> !n = List.length ops
      | `Incomplete -> false)

(* Two-core op streams that also switch the bus mode and the
   prefetchers, so every part of the machine's state — both cores'
   components, the interconnect's float estimators and its Mba limit —
   is live.  Each op is (core, (selector, a, b)); selectors 7 and 8
   are the switches, the rest decode as above. *)
let multi_ops_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 1 80)
      (pair (int_bound 1)
         (triple (int_bound 8) (int_bound 1_000_000) (int_bound 1_000_000))))

let run_multi m ops =
  List.map
    (fun (core, ((sel, a, b) as op)) ->
      match sel with
      | 7 ->
          Interconnect.set_mode (Machine.bus m)
            (match b mod 3 with
            | 0 -> Interconnect.Open
            | 1 -> Interconnect.Partitioned
            | _ -> Interconnect.Mba (float_of_int (1 + (a mod 9)) /. 10.0));
          0
      | 8 ->
          Machine.set_prefetcher_enabled m ~core (b land 1 = 1);
          0
      | _ -> live_op m ~core op)
    ops

(* (a) snapshot -> perturb -> restore digests as the snapshot; (b) the
   snapshot restored onto a fresh machine forks it: the same suffix
   then runs with the same per-op latencies on both and leaves them in
   the same state. *)
let qcheck_snapshot_fork =
  QCheck.Test.make
    ~name:"snapshot round-trip and fork, two cores, every platform" ~count:30
    QCheck.(triple (int_bound 2) multi_ops_gen multi_ops_gen)
    (fun (pi, pre, suffix) ->
      let p = [| haswell; sabre; Platform.armv8 |].(pi) in
      let m = Machine.create p in
      ignore (run_multi m pre : int list);
      let snap = Machine.snapshot m in
      let want = Machine.snapshot_digest snap in
      ignore (run_multi m suffix : int list);
      Machine.restore m snap;
      let round_trip = Machine.state_digest m = want in
      let fork = Machine.create p in
      Machine.restore fork snap;
      let lats = run_multi m suffix in
      let lats_fork = run_multi fork suffix in
      round_trip && lats = lats_fork
      && Machine.state_digest m = Machine.state_digest fork)

(* ---- stream lifecycle ------------------------------------------- *)

let test_stream_lifecycle () =
  let r = Replay.create () in
  Alcotest.(check bool) "empty stream not complete" false (Replay.complete r);
  Replay.append_add_cycles r 10;
  Alcotest.(check bool) "no idle marker: not complete" false (Replay.complete r);
  Alcotest.(check int) "length counts ops" 1 (Replay.length r);
  Replay.append_idle r;
  Alcotest.(check bool) "idle-terminated stream complete" true
    (Replay.complete r);
  let d = Replay.digest r in
  Alcotest.(check string) "digest cached and stable" d (Replay.digest r);
  Replay.poison r;
  Alcotest.(check bool) "poisoned stream not complete" false (Replay.complete r);
  Alcotest.(check bool) "poisoned stream digests distinctly" true
    (Replay.digest r <> d);
  Replay.clear r;
  Alcotest.(check int) "clear empties" 0 (Replay.length r);
  Alcotest.(check bool) "clear unpoisons" false (Replay.poisoned r)

(* ---- recording determinism across identical boots ---------------- *)

let test_record_streams_deterministic () =
  let record_once () =
    let b = Scenario.boot Scenario.Raw haswell in
    let chan = Tp_attacks.Cache_channels.tlb in
    let sender, _ = chan.Tp_attacks.Cache_channels.prepare b in
    Tp_attacks.Harness.record_streams b ~sender
      ~symbols:chan.Tp_attacks.Cache_channels.symbols
      ~slice_cycles:
        (Tp_attacks.Harness.default_spec haswell)
          .Tp_attacks.Harness.slice_cycles
  in
  let s1 = record_once () and s2 = record_once () in
  Alcotest.(check int) "same stream count" (Array.length s1) (Array.length s2);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "stream %d complete" i)
        true (Replay.complete r);
      Alcotest.(check string)
        (Printf.sprintf "stream %d digest boot-independent" i)
        (Replay.digest r) (Replay.digest s2.(i)))
    s1

(* The campaign engine seeds each trial with the streams earlier trials
   ended with, so those must be exactly what a recording on a fresh
   boot gives: for every replayable channel, platform and config, each
   symbol a short trial sent comes back with the fresh recording's
   digest, and only a symbol it never sent comes back without one. *)
let test_trial_streams_match_fresh_recording () =
  let module H = Tp_attacks.Harness in
  let module Cc = Tp_attacks.Cache_channels in
  List.iter
    (fun (p : Platform.t) ->
      List.iter
        (fun (kind, cfg) ->
          List.iter
            (fun (chan : Cc.t) ->
              let name =
                String.concat "/" [ p.Platform.name; cfg; chan.Cc.name ]
              in
              let default = H.default_spec p in
              let fresh =
                let b = Scenario.boot kind p in
                let sender, _ = chan.Cc.prepare b in
                H.record_streams b ~sender ~symbols:chan.Cc.symbols
                  ~slice_cycles:default.H.slice_cycles
              in
              let b = Scenario.boot kind p in
              let sender, receiver = chan.Cc.prepare b in
              let spec =
                { default with H.samples = 24; symbols = chan.Cc.symbols }
              in
              let r =
                H.run_pair_result b ~sender ~receiver spec
                  ~rng:(Tp_util.Rng.create ~seed:3)
              in
              let sent = r.H.data.Tp_channel.Mi.input in
              Array.iteri
                (fun s stream ->
                  match stream with
                  | Some st ->
                      Alcotest.(check string)
                        (Printf.sprintf "%s: symbol %d stream" name s)
                        (Replay.digest fresh.(s)) (Replay.digest st)
                  | None ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%s: symbol %d unsent" name s)
                        false (Array.mem s sent))
                r.H.streams)
            Cc.[ l1d; l1i; tlb; btb p; bhb; l2 ])
        [ (Scenario.Raw, "raw"); (Scenario.Protected, "protected") ])
    Platform.[ haswell; sabre; armv8 ]

(* ---- harness-level bit-identity --------------------------------- *)

let collect ~replay chan kind =
  let b = Scenario.boot kind haswell in
  let sender, receiver = chan.Tp_attacks.Cache_channels.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec haswell) with
      Tp_attacks.Harness.samples = 120;
      symbols = chan.Tp_attacks.Cache_channels.symbols;
      replay;
    }
  in
  let r =
    Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec
      ~rng:(Tp_util.Rng.create ~seed:11)
  in
  Alcotest.(check bool) "complete" false r.Tp_attacks.Harness.degraded;
  Alcotest.(check int) "all samples" 120
    (Array.length r.Tp_attacks.Harness.data.Tp_channel.Mi.input);
  ( r.Tp_attacks.Harness.data,
    Machine.state_digest (Tp_kernel.System.machine b.Tp_kernel.Boot.sys) )

let test_harness_replay_bit_identical () =
  List.iter
    (fun (chan : Tp_attacks.Cache_channels.t) ->
      List.iter
        (fun (kind, cfg) ->
          let name = cfg ^ "/" ^ chan.Tp_attacks.Cache_channels.name in
          let d_rep, m_rep = collect ~replay:true chan kind in
          let d_live, m_live = collect ~replay:false chan kind in
          Alcotest.(check bool)
            (name ^ ": replayed dataset = live dataset")
            true (d_rep = d_live);
          Alcotest.(check string)
            (name ^ ": replayed machine state = live machine state")
            m_live m_rep)
        [ (Scenario.Raw, "raw"); (Scenario.Protected, "protected") ])
    Tp_attacks.Cache_channels.[ l1d; tlb ]

(* The kernel-channel sender enters the kernel for symbols 0-2, so
   those recordings must poison themselves (replay can't reproduce a
   syscall's machine effect) — while symbol 3, pure compute, is
   machine-mediated and legitimately replayable. *)
let test_poisoning_self_disqualifies () =
  let b = Scenario.boot Scenario.Raw haswell in
  let sender, _ = Tp_attacks.Kernel_chan.prepare b in
  let streams =
    Tp_attacks.Harness.record_streams b ~sender
      ~symbols:Tp_attacks.Kernel_chan.symbols
      ~slice_cycles:
        (Tp_attacks.Harness.default_spec haswell)
          .Tp_attacks.Harness.slice_cycles
  in
  Array.iteri
    (fun i r ->
      let replayable = i = 3 in
      Alcotest.(check bool)
        (Printf.sprintf "kernel-chan stream %d replayable=%b" i replayable)
        replayable (Replay.complete r);
      if not replayable then
        Alcotest.(check bool)
          (Printf.sprintf "kernel-chan stream %d poisoned" i)
          true (Replay.poisoned r))
    streams

(* ---- crash consistency ------------------------------------------ *)

(* Whole-machine restore crosses [Machine.point_restore] once per
   component loaded, so arming each crossing in turn crashes the
   restore between every pair of components.  Every crossing must
   fire, and restoring again (the recovery) must leave no torn state:
   the machine digests exactly as the snapshot. *)
let test_torn_restore_recovered () =
  let b = Scenario.boot Scenario.Raw haswell in
  let m = Tp_kernel.System.machine b.Tp_kernel.Boot.sys in
  let perturb () =
    for i = 0 to 63 do
      ignore
        (Machine.access m ~core:0 ~asid:0 ~global:false ~vaddr:(i * 4096)
           ~paddr:(i * 4096) ~kind:Defs.Read ()
          : int)
    done
  in
  let snap = Machine.snapshot m in
  let want = Machine.snapshot_digest snap in
  perturb ();
  let (), crossings = Tp_fault.Fault.trace (fun () -> Machine.restore m snap) in
  let steps = List.length crossings in
  Alcotest.(check bool) "restore crosses the injection point" true (steps > 1);
  for hit = 0 to steps - 1 do
    perturb ();
    Tp_fault.Fault.arm ~point:Machine.point_restore ~hit
      (Failure "injected restore crash");
    let crashed =
      Fun.protect ~finally:Tp_fault.Fault.disarm (fun () ->
          match Machine.restore m snap with
          | () -> false
          | exception Failure _ -> true)
    in
    Alcotest.(check bool) (Printf.sprintf "crossing %d fired" hit) true crashed;
    Machine.restore m snap;
    Alcotest.(check string)
      (Printf.sprintf "re-restore after crash at %d = snapshot" hit)
      want (Machine.state_digest m)
  done

(* A fault striking the replay path mid-collection is recovered by the
   harness exactly like a live-slice kernel fault. *)
let test_replay_step_fault_recovered () =
  let b = Scenario.boot Scenario.Protected haswell in
  let chan = Tp_attacks.Cache_channels.l1d in
  Test_fault.check_fault_recovered ~point:Replay.point_step ~hit:3 b
    (chan.Tp_attacks.Cache_channels.prepare b)
    chan.Tp_attacks.Cache_channels.symbols

(* ---- hot-path discipline: live and replayed accesses allocate nothing *)

(* Minor-heap words [f ()] allocates, net of the measurement's own. *)
let alloc_words f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

let net_alloc_words f = alloc_words f - alloc_words (fun () -> ())

let counter st name = List.assoc name (Tp_obs.Counter.snapshot st)

let counter_set m name =
  List.find
    (fun st -> Tp_obs.Counter.set_name st = name)
    (Machine.counter_sets m)

(* The kernel receiver's pattern: a stride-permuted sweep over a
   buffer the size of the probed cache (the private L2, else the LLC),
   reads, writes and fetches in turn, 4,096 of each, every sixteenth
   after a clflush of its line, in segments that each start with a TLB
   invalidation so walks recur.  With a timer armed but not yet due,
   every [Uctx.post] polls the IRQ table. *)
let ops_per_kind = 4096
let segment = 1024

let test_live_access_allocates_nothing () =
  let open Tp_kernel in
  List.iter
    (fun p ->
      let b = Boot.boot ~platform:p ~config:Config.raw ~domains:1 () in
      let sys = b.Boot.sys in
      let m = System.machine sys in
      let d0 = b.Boot.domains.(0) in
      let g = Option.value p.Platform.l2 ~default:p.Platform.llc in
      let line = g.Cache.line in
      let pages = g.Cache.size / Defs.page_size in
      let buf = Boot.alloc_pages b d0 ~pages in
      let tcb = Boot.spawn b d0 (fun _ -> ()) in
      Sched.remove (System.sched sys) ~core:0 tcb;
      Irq.arm_timer (System.irq sys) ~core:0 ~irq:5 ~at:(max_int / 2);
      let ctx = Uctx.make sys ~core:0 tcb ~slice_end:max_int in
      let lines = pages * Defs.page_size / line in
      (* One page and one line on: coprime with the line count. *)
      let stride = (Defs.page_size / line) + 1 in
      let op k =
        let a = buf + (k * stride mod lines * line) in
        (* Now and then a flushed line, so misses reach DRAM and the bus. *)
        if k mod 16 = 0 then Uctx.clflush ctx a;
        match k mod 3 with
        | 0 -> Uctx.read ctx a
        | 1 -> Uctx.write ctx a
        | _ -> Uctx.fetch ctx a
      in
      let run_segment seg () =
        for k = seg * segment to ((seg + 1) * segment) - 1 do
          op k
        done
      in
      let sweep () =
        let words = ref 0 in
        for seg = 0 to (3 * ops_per_kind / segment) - 1 do
          ignore (Machine.flush_step m ~core:0 Flush.Tlb);
          words := !words + net_alloc_words (run_segment seg)
        done;
        !words
      in
      ignore (sweep ());
      Alcotest.(check int)
        (p.Platform.name ^ ": minor words, live accesses") 0 (sweep ());
      (* The same sweep counted: it reaches every part of the path. *)
      let core = counter_set m "c0.core" and l1d = counter_set m "c0.l1d" in
      Tp_obs.Ctl.set_counters true;
      let walks0 = counter core "tlb_walks" and misses0 = counter l1d "misses" in
      let pf0 = counter core "prefetch_lines" in
      let words = sweep () in
      Tp_obs.Ctl.set_counters false;
      Alcotest.(check int)
        (p.Platform.name ^ ": minor words, counters on") 0 words;
      Alcotest.(check bool) "TLB walks" true (counter core "tlb_walks" > walks0);
      Alcotest.(check bool) "L1 misses" true (counter l1d "misses" > misses0);
      Alcotest.(check bool) "LLC misses" true
        (counter (counter_set m "llc") "misses" > 0);
      (match p.Platform.l2 with
      | Some _ ->
          let l2 = counter_set m "c0.l2" in
          Alcotest.(check bool) "L2 misses" true (counter l2 "misses" > 0)
      | None -> ());
      if p.Platform.prefetcher_slots > 0 then
        Alcotest.(check bool) "prefetches" true
          (counter core "prefetch_lines" > pf0);
      (* The same body recorded once, then replayed. *)
      let r = Replay.create () in
      Uctx.set_recorder ctx (Some r);
      run_segment 0 ();
      Uctx.set_recorder ctx None;
      Replay.append_idle r;
      let asid = (Option.get tcb.Types.t_vspace).Types.vs_asid in
      let replay () =
        ignore (Replay.replay m ~core:0 ~asid ~llc_ways:max_int ~until:max_int r)
      in
      replay ();
      Alcotest.(check int)
        (p.Platform.name ^ ": minor words, replay") 0 (net_alloc_words replay))
    [ Platform.haswell; Platform.sabre; Platform.armv8 ]

(* The x86 manual L1 flush (a load per L1-D line, a chained jump per
   L1-I line, through the current kernel's flush buffers) runs on every
   protected haswell switch and allocates nothing either. *)
let test_manual_l1_flush_allocates_nothing () =
  let open Tp_kernel in
  let p = Platform.haswell in
  let b = Boot.boot ~platform:p ~config:(Config.protected_ p) () in
  let sys = b.Boot.sys in
  let tcb = Boot.spawn b b.Boot.domains.(0) (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 tcb;
  ignore (Domain_switch.switch sys ~core:0 ~to_:tcb);
  let flush () = ignore (Domain_switch.flush sys ~core:0 [ Flush.L1_manual ]) in
  Alcotest.(check int) "minor words, manual L1 flush" 0 (net_alloc_words flush)

let suite =
  [
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot platform check" `Quick
      test_snapshot_wrong_platform_rejected;
    QCheck_alcotest.to_alcotest qcheck_snapshot_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_replay_matches_live;
    QCheck_alcotest.to_alcotest qcheck_replay_budget_stops;
    Alcotest.test_case "stream lifecycle" `Quick test_stream_lifecycle;
    Alcotest.test_case "recording deterministic across boots" `Quick
      test_record_streams_deterministic;
    Alcotest.test_case "trial streams match a fresh recording" `Quick
      test_trial_streams_match_fresh_recording;
    Alcotest.test_case "harness replay bit-identical" `Quick
      test_harness_replay_bit_identical;
    Alcotest.test_case "kernel-chan sender self-disqualifies" `Quick
      test_poisoning_self_disqualifies;
    Alcotest.test_case "torn restore recovered bit-identically" `Quick
      test_torn_restore_recovered;
    Alcotest.test_case "replay_step fault recovered" `Quick
      test_replay_step_fault_recovered;
    QCheck_alcotest.to_alcotest qcheck_snapshot_fork;
    Alcotest.test_case "live and replayed accesses allocate nothing" `Quick
      test_live_access_allocates_nothing;
    Alcotest.test_case "manual L1 flush allocates nothing" `Quick
      test_manual_l1_flush_allocates_nothing;
  ]
