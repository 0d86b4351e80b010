(* Tp_par.Pool: work distribution semantics and, above all, the
   determinism contract — a parallel run must be bit-identical to
   [~jobs:1], which is what lets every experiment take [-j N] without
   changing any published number. *)

open Tp_par

let test_run_order () =
  Alcotest.(check (array int))
    "results in trial order"
    (Array.init 17 (fun i -> i * i))
    (Pool.run ~jobs:3 17 (fun i -> i * i))

let test_run_degenerate () =
  Alcotest.(check (array int)) "n = 0" [||] (Pool.run ~jobs:4 0 (fun i -> i));
  Alcotest.(check (array int)) "n = 1" [| 7 |] (Pool.run ~jobs:4 1 (fun _ -> 7));
  Alcotest.(check (array int))
    "more jobs than tasks" [| 0; 1 |]
    (Pool.run ~jobs:16 2 (fun i -> i))

let test_map_list () =
  Alcotest.(check (list string))
    "order and index"
    [ "0a"; "1b"; "2c"; "3d" ]
    (Pool.map_list ~jobs:2 [ "a"; "b"; "c"; "d" ] (fun i s ->
         string_of_int i ^ s))

let test_lowest_failure_wins () =
  let raised =
    try
      ignore
        (Pool.run ~jobs:2 8 (fun i ->
             if i >= 5 then failwith (string_of_int i) else i));
      None
    with Failure m -> Some m
  in
  Alcotest.(check (option string)) "lowest-index exception" (Some "5") raised

let test_pool_absorbs_worker_counters () =
  (* A counter set registered by a task must survive into the calling
     domain's registry with its value intact, wherever the task ran. *)
  Tp_obs.Ctl.set_counters true;
  Fun.protect
    ~finally:(fun () -> Tp_obs.Ctl.set_counters false)
    (fun () ->
      ignore
        (Pool.run ~jobs:3 6 (fun i ->
             let s =
               Tp_obs.Counter.make_set (Printf.sprintf "par.pool.%d" i)
             in
             let c = Tp_obs.Counter.counter s "events" in
             Tp_obs.Counter.register s;
             Tp_obs.Counter.add c (i + 1)));
      for i = 0 to 5 do
        match Tp_obs.Counter.find (Printf.sprintf "par.pool.%d" i) with
        | None -> Alcotest.failf "set par.pool.%d lost at join" i
        | Some s ->
            Alcotest.(check int)
              (Printf.sprintf "par.pool.%d total" i)
              (i + 1)
              (Tp_obs.Counter.total (Tp_obs.Counter.snapshot s))
      done)

let test_trace_replayed_in_trial_order () =
  Tp_obs.Trace.start ~capacity:64 ();
  Fun.protect
    ~finally:(fun () ->
      Tp_obs.Trace.stop ();
      Tp_obs.Trace.clear ())
    (fun () ->
      ignore
        (Pool.run ~jobs:2 6 (fun i ->
             Tp_obs.Trace.instant ~ts:i ~core:0 ~cat:"test"
               ~name:(Printf.sprintf "t%d" i)
               ()));
      Alcotest.(check (list string))
        "events land in trial order"
        [ "t0"; "t1"; "t2"; "t3"; "t4"; "t5" ]
        (List.map (fun e -> e.Tp_obs.Trace.name) (Tp_obs.Trace.events ())))

(* Uneven task times, 0–4 ms cycling down with the index, so at
   -j > 1 later tasks often land before earlier ones and the commit
   must wait for them. *)
let uneven n i =
  Unix.sleepf (0.001 *. float_of_int ((n - i) mod 5));
  i * 10

let test_ordered_commit () =
  let n = 23 in
  List.iter
    (fun jobs ->
      let seen = ref [] in
      Pool.run_ordered ~jobs n (uneven n) ~commit:(fun i v ->
          seen := (i, v) :: !seen;
          `Continue);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "-j %d: every index once, in order" jobs)
        (List.init n (fun i -> (i, i * 10)))
        (List.rev !seen))
    [ 1; 2; 3 ]

let test_commit_stop () =
  let n = 64 and stop_at = 3 in
  List.iter
    (fun jobs ->
      let seen = ref [] in
      let started = Atomic.make 0 in
      Pool.run_ordered ~jobs n
        (fun i ->
          Atomic.incr started;
          uneven n i)
        ~commit:(fun i _ ->
          seen := i :: !seen;
          if i = stop_at then `Stop else `Continue);
      Alcotest.(check (list int))
        (Printf.sprintf "-j %d: no commit after stop" jobs)
        (List.init (stop_at + 1) Fun.id)
        (List.rev !seen);
      Alcotest.(check bool)
        (Printf.sprintf "-j %d: claims end at the stop (%d started)" jobs
           (Atomic.get started))
        true
        (Atomic.get started < n))
    [ 1; 2; 3 ]

(* ---- the determinism property ----------------------------------- *)

(* One harness channel trial, digested: fresh boot, trial-derived RNG,
   everything the experiments rely on.  The digest covers the collected
   samples and the final simulated clock. *)
let channel_trial ?slice_cycles ~scenario ~samples chan p ~seed ~trial =
  let rng = Tp_util.Rng.of_trial ~seed ~trial in
  let b = Tp_core.Scenario.boot scenario p in
  let sender, receiver = chan.Tp_attacks.Cache_channels.prepare b in
  let default = Tp_attacks.Harness.default_spec p in
  let spec =
    {
      default with
      Tp_attacks.Harness.samples;
      symbols = chan.Tp_attacks.Cache_channels.symbols;
      slice_cycles = Option.value slice_cycles ~default:default.slice_cycles;
    }
  in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  let s = r.Tp_attacks.Harness.data in
  (* Runs on pool domains, so fail by exception rather than through the
     (not domain-safe) Alcotest printer. *)
  if r.Tp_attacks.Harness.degraded || Array.length s.Tp_channel.Mi.input <> samples
  then failwith "channel_trial: incomplete collection";
  ( Digest.to_hex
      (Digest.string
         (Marshal.to_string (s.Tp_channel.Mi.input, s.Tp_channel.Mi.output) [])),
    Tp_kernel.System.now b.Tp_kernel.Boot.sys ~core:0 )

let l1d = Tp_attacks.Cache_channels.l1d

let kernel_chan =
  {
    Tp_attacks.Cache_channels.name = "kernel";
    symbols = Tp_attacks.Kernel_chan.symbols;
    prepare = Tp_attacks.Kernel_chan.prepare;
  }

let flush_chan =
  {
    Tp_attacks.Cache_channels.name = "flush";
    symbols = Tp_attacks.Flush_chan.symbols;
    prepare = Tp_attacks.Flush_chan.prepare Tp_attacks.Flush_chan.Offline;
  }

(* A SPLASH-2-signature workload alone on a raw machine: no channel,
   no harness, just the cycles it consumed. *)
let splash_trial p ~seed ~trial =
  let open Tp_kernel in
  let b =
    Boot.boot ~colour_percent:100 ~domains:1 ~platform:p ~config:Config.raw ()
  in
  Tp_workloads.Splash.run_alone b b.Boot.domains.(0)
    (List.hd Tp_workloads.Splash.all)
    ~accesses:10_000
    ~rng:(Tp_util.Rng.of_trial ~seed ~trial)

(* Four trials at -j 2 against -j 1. *)
let check_j2 what trial =
  Alcotest.(check bool)
    (what ^ ": -j 2 == -j 1")
    true
    (Pool.run ~jobs:2 4 trial = Pool.run ~jobs:1 4 trial)

let test_parallel_bit_identical () =
  List.iter
    (fun p ->
      List.iter
        (fun seed ->
          let trial i =
            channel_trial ~scenario:Tp_core.Scenario.Raw ~samples:30 l1d p
              ~seed ~trial:i
          in
          let seq = Pool.run ~jobs:1 4 trial in
          List.iter
            (fun jobs ->
              let par = Pool.run ~jobs 4 trial in
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d: -j %d == -j 1"
                   p.Tp_hw.Platform.name seed jobs)
                true (par = seq))
            [ 2; 4 ])
        [ 1; 42 ])
    [ Tp_hw.Platform.haswell; Tp_hw.Platform.sabre ];
  check_j2 "splash solo" (fun i ->
      splash_trial Tp_hw.Platform.haswell ~seed:1 ~trial:i)

let test_parallel_bit_identical_protected () =
  (* The mitigated configurations drive the switch machinery — kernel
     clones, flushes, padding, the shared kernel's syscall footprint —
     through the pool's id regions. *)
  let p = Tp_hw.Platform.haswell in
  let trial i =
    channel_trial ~scenario:Tp_core.Scenario.Protected_no_pad ~samples:20 l1d p
      ~seed:7 ~trial:i
  in
  let seq = Pool.run ~jobs:1 3 trial in
  let par = Pool.run ~jobs:3 3 trial in
  Alcotest.(check bool) "protected path: -j 3 == -j 1" true (par = seq);
  check_j2 "kernel channel, coloured only" (fun i ->
      channel_trial ~scenario:Tp_core.Scenario.Coloured_only
        ~slice_cycles:(Tp_attacks.Kernel_chan.slice_cycles p)
        ~samples:20 kernel_chan p ~seed:7 ~trial:i);
  check_j2 "flush channel offline, no pad" (fun i ->
      channel_trial ~scenario:Tp_core.Scenario.Protected_no_pad ~samples:20
        flush_chan p ~seed:7 ~trial:i)

let test_validate_jobs () =
  (* Explicit parallelism under fault injection is a hard error whose
     message names the constraint — never a silent downgrade. *)
  (match Pool.validate_jobs ~jobs:(Some 4) ~inject:true with
  | Error msg ->
      let has sub =
        let n = String.length msg and m = String.length sub in
        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "message names --inject" true (has "--inject");
      Alcotest.(check bool)
        "message states the constraint" true (has "process-global");
      Alcotest.(check bool)
        "message offers the fix" true (has "--jobs 1")
  | Ok _ -> Alcotest.fail "--inject with -j 4 accepted");
  Alcotest.(check (result int string))
    "explicit -j 1 under injection is fine" (Ok 1)
    (Pool.validate_jobs ~jobs:(Some 1) ~inject:true);
  Alcotest.(check (result int string))
    "unspecified jobs under injection resolve to 1" (Ok 1)
    (Pool.validate_jobs ~jobs:None ~inject:true);
  Alcotest.(check (result int string))
    "explicit jobs pass through" (Ok 6)
    (Pool.validate_jobs ~jobs:(Some 6) ~inject:false);
  Alcotest.(check (result int string))
    "jobs clamped to >= 1" (Ok 1)
    (Pool.validate_jobs ~jobs:(Some 0) ~inject:false);
  match Pool.validate_jobs ~jobs:None ~inject:false with
  | Ok j -> Alcotest.(check bool) "default is positive" true (j >= 1)
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "run preserves order" `Quick test_run_order;
    Alcotest.test_case "validate_jobs rejects --inject with -j N" `Quick
      test_validate_jobs;
    Alcotest.test_case "run degenerate sizes" `Quick test_run_degenerate;
    Alcotest.test_case "map_list order and index" `Quick test_map_list;
    Alcotest.test_case "ordered commit: each index once, in order" `Quick
      test_ordered_commit;
    Alcotest.test_case "ordered commit: stop ends the run" `Quick
      test_commit_stop;
    Alcotest.test_case "lowest failure wins" `Quick test_lowest_failure_wins;
    Alcotest.test_case "counters absorbed at join" `Quick
      test_pool_absorbs_worker_counters;
    Alcotest.test_case "trace replayed in trial order" `Quick
      test_trace_replayed_in_trial_order;
    Alcotest.test_case "parallel bit-identical (raw, both platforms)" `Quick
      test_parallel_bit_identical;
    Alcotest.test_case "parallel bit-identical (protected)" `Quick
      test_parallel_bit_identical_protected;
  ]
