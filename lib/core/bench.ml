(* Benchmark-regression harness (tpsim bench).

   Runs a small fixed suite of simulator workloads — covert-channel
   collections and a Splash solo run — as independent trials, once
   sequentially (-j 1) and once on the parallel pool, and reports
   throughput (simulated cycles/s, memory accesses/s), wall clock,
   speedup and max RSS as a machine-readable JSON document.

   Two properties make the numbers trustworthy:

   - every trial returns a digest of its simulation output, and the
     sequential and parallel digests must be bit-identical — the run
     fails otherwise, so a reported speedup can never come from
     computing something different;
   - throughput is measured in simulator work units (cycles, accesses
     from the microarchitectural counters), so a regression gate on
     them tracks the simulator hot path rather than host noise.

   The [--baseline] gate compares accesses/s against a previously
   emitted JSON file and fails on a relative drop beyond
   [--max-regress] percent.  Checked-in baselines should be generous
   (see bench/baseline.json): CI hosts vary widely, the gate is there
   to catch order-of-magnitude hot-path regressions, not 5%% noise. *)

open Tp_kernel

type trial_out = { t_digest : string; t_cycles : int; t_accesses : int }

type exp_result = {
  r_name : string;
  r_platform : string;
  r_trials : int;
  r_wall_seq : float;
  r_wall_par : float;
  r_speedup : float;
  r_cycles : int;
  r_accesses : int;
  r_cycles_per_sec : float;
  r_accesses_per_sec : float;
  r_deterministic : bool;
}

(* ---- per-trial instrumentation ---------------------------------- *)

let digest_string s = Digest.to_hex (Digest.string s)

let digest_samples (s : Tp_channel.Mi.samples) =
  digest_string
    (Marshal.to_string (s.Tp_channel.Mi.input, s.Tp_channel.Mi.output) [])

(* Per-core "accesses" counters of the trial's own machine.  Each trial
   boots a fresh system whose counters start at zero, so reading them at
   the end gives exactly the trial's traffic — deterministic, unlike a
   delta over the domain-global registry, where a later boot re-registers
   same-named sets. *)
let accesses_of sys =
  List.fold_left
    (fun acc set ->
      List.fold_left
        (fun a (n, v) -> if n = "accesses" then a + v else a)
        acc
        (Tp_obs.Counter.snapshot set))
    0
    (Tp_hw.Machine.counter_sets (System.machine sys))

(* ---- the suite -------------------------------------------------- *)

let bench_samples = function Quality.Quick -> 120 | Quality.Full -> 600
let bench_trials = function Quality.Quick -> 8 | Quality.Full -> 16
let bench_accesses = function Quality.Quick -> 40_000 | Quality.Full -> 200_000

type exp_spec = {
  x_name : string;
  x_run : Quality.t -> seed:int -> trial:int -> Tp_hw.Platform.t -> trial_out;
}

let channel_trial ?slice_cycles ~scenario ~prepare ~symbols q ~seed ~trial p =
  let rng = Tp_util.Rng.of_trial ~seed ~trial in
  let b = Scenario.boot scenario p in
  let sender, receiver = prepare b in
  let default = Tp_attacks.Harness.default_spec p in
  let spec =
    {
      default with
      Tp_attacks.Harness.samples = bench_samples q;
      symbols;
      slice_cycles = Option.value slice_cycles ~default:default.slice_cycles;
    }
  in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  (match r.degraded_reason with
  | Some why -> failwith ("tpsim bench: channel trial degraded: " ^ why)
  | None -> ());
  {
    t_digest = digest_samples r.data;
    t_cycles = System.now b.Boot.sys ~core:0;
    t_accesses = accesses_of b.Boot.sys;
  }

let suite =
  [
    {
      x_name = "kernel-chan";
      x_run =
        (fun q ~seed ~trial p ->
          channel_trial ~scenario:Scenario.Coloured_only
            ~slice_cycles:(Tp_attacks.Kernel_chan.slice_cycles p)
            ~prepare:Tp_attacks.Kernel_chan.prepare
            ~symbols:Tp_attacks.Kernel_chan.symbols q ~seed ~trial p);
    };
    {
      x_name = "l1d-chan";
      x_run =
        (fun q ~seed ~trial p ->
          let chan = Tp_attacks.Cache_channels.l1d in
          channel_trial ~scenario:Scenario.Raw
            ~prepare:chan.Tp_attacks.Cache_channels.prepare
            ~symbols:chan.Tp_attacks.Cache_channels.symbols q ~seed ~trial p);
    };
    {
      x_name = "flush-chan";
      x_run =
        (fun q ~seed ~trial p ->
          channel_trial ~scenario:Scenario.Protected_no_pad
            ~prepare:(Tp_attacks.Flush_chan.prepare Tp_attacks.Flush_chan.Offline)
            ~symbols:Tp_attacks.Flush_chan.symbols q ~seed ~trial p);
    };
    {
      x_name = "splash-solo";
      x_run =
        (fun q ~seed ~trial p ->
          let w = List.hd Tp_workloads.Splash.all in
          let b =
            Boot.boot ~colour_percent:100 ~domains:1 ~platform:p
              ~config:Config.raw ()
          in
          let rng = Tp_util.Rng.of_trial ~seed ~trial in
          let cycles =
            Tp_workloads.Splash.run_alone b b.Boot.domains.(0) w
              ~accesses:(bench_accesses q) ~rng
          in
          {
            t_digest = digest_string (string_of_int cycles);
            t_cycles = cycles;
            t_accesses = accesses_of b.Boot.sys;
          });
    };
  ]

(* ---- the replay-sweep experiment --------------------------------- *)

(* Victim-execution-shaped measurement of the record-once/replay-many
   hot path: record one op stream per symbol, snapshot the machine,
   then drive the same schedule of sender slices from the same restored
   state, alternately live (the body re-executes, then idles to the
   slice boundary) and replayed (Tp_hw.Replay re-executes the ops).
   Both legs idle through the same event-driven path, so the ratio
   measures what replay saves on the body itself.  Every leg's final
   machine-state digest must be bit-identical — a speedup that
   computes something different is a failure, same rule as the
   parallel suite above — and the median of the per-pair speedups must
   clear the floor the sweep hot path is built on. *)
let replay_speedup_floor = 1.5

(* Alternating live/replay leg pairs: the median ratio rides out a
   noisy leg on a shared host. *)
let replay_pairs = 5

(* Fixed, so the live and replay digests stay reproducible; large
   enough that one leg is not host-timer noise. *)
let replay_rounds = function Quality.Quick -> 200 | Quality.Full -> 400

let replay_sweep_exp q p =
  let module H = Tp_attacks.Harness in
  let b = Scenario.boot Scenario.Raw p in
  let chan = Tp_attacks.Cache_channels.tlb in
  let sender, _receiver = chan.Tp_attacks.Cache_channels.prepare b in
  let symbols = chan.Tp_attacks.Cache_channels.symbols in
  let slice_cycles = (H.default_spec p).H.slice_cycles in
  let sys = b.Boot.sys in
  let m = System.machine sys in
  let streams = Array.init symbols (fun _ -> Tp_hw.Replay.create ()) in
  let mode = ref `Nop in
  let body ctx =
    match !mode with
    | `Nop -> ()
    | `Record s ->
        Uctx.set_recorder ctx (Some streams.(s));
        sender ctx s
    | `Live s -> sender ctx s
    | `Replay s ->
        if not (Uctx.replay ctx streams.(s)) then
          failwith "tpsim bench: replay-sweep: replay refused a complete stream"
  in
  ignore (Boot.spawn b b.Boot.domains.(0) body);
  let slice md =
    mode := md;
    Exec.run_slices sys ~core:0 ~slice_cycles ~slices:1 ()
  in
  for s = 0 to symbols - 1 do
    slice (`Record s)
  done;
  Array.iter
    (fun r ->
      if not (Tp_hw.Replay.complete r) then
        failwith "tpsim bench: replay-sweep: recording came back incomplete")
    streams;
  let snap = Tp_hw.Machine.snapshot m in
  let rounds = replay_rounds q in
  let leg md =
    Tp_hw.Machine.restore m snap;
    let c0 = System.now sys ~core:0 in
    let a0 = accesses_of sys in
    let t0 = Unix.gettimeofday () in
    for i = 0 to (rounds * symbols) - 1 do
      slice (md (i mod symbols))
    done;
    let wall = Unix.gettimeofday () -. t0 in
    ( Tp_hw.Machine.state_digest m,
      System.now sys ~core:0 - c0,
      accesses_of sys - a0,
      wall )
  in
  let pairs =
    List.init replay_pairs (fun _ ->
        let live = leg (fun s -> `Live s) in
        (live, leg (fun s -> `Replay s)))
  in
  let (d_ref, _, _, _), (_, cycles, accesses, _) = List.hd pairs in
  let median f = Tp_util.Stats.median (Array.of_list (List.map f pairs)) in
  let wall_live = median (fun ((_, _, _, w), _) -> w) in
  let wall_rep = median (fun (_, (_, _, _, w)) -> w) in
  let per denom v = if denom > 0.0 then float_of_int v /. denom else 0.0 in
  {
    r_name = "replay-sweep";
    r_platform = p.Tp_hw.Platform.name;
    r_trials = rounds * symbols;
    r_wall_seq = wall_live;
    r_wall_par = wall_rep;
    r_speedup =
      median (fun ((_, _, _, wl), (_, _, _, wr)) ->
          if wr > 0.0 then wl /. wr else 1.0);
    r_cycles = cycles;
    r_accesses = accesses;
    r_cycles_per_sec = per wall_rep cycles;
    r_accesses_per_sec = per wall_rep accesses;
    r_deterministic =
      List.for_all
        (fun ((dl, _, _, _), (dr, _, _, _)) -> dl = d_ref && dr = d_ref)
        pairs;
  }

(* ---- running ---------------------------------------------------- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run_exp q ~seed ~jobs p x =
  let n = bench_trials q in
  let trial i = x.x_run q ~seed ~trial:i p in
  let seq, wall_seq = time (fun () -> Tp_par.Pool.run ~jobs:1 n trial) in
  let par, wall_par = time (fun () -> Tp_par.Pool.run ~jobs n trial) in
  let det = seq = par in
  let cycles = Array.fold_left (fun a t -> a + t.t_cycles) 0 par in
  let accesses = Array.fold_left (fun a t -> a + t.t_accesses) 0 par in
  let per denom v = if denom > 0.0 then float_of_int v /. denom else 0.0 in
  {
    r_name = x.x_name;
    r_platform = p.Tp_hw.Platform.name;
    r_trials = n;
    r_wall_seq = wall_seq;
    r_wall_par = wall_par;
    r_speedup = (if wall_par > 0.0 then wall_seq /. wall_par else 1.0);
    r_cycles = cycles;
    r_accesses = accesses;
    r_cycles_per_sec = per wall_par cycles;
    r_accesses_per_sec = per wall_par accesses;
    r_deterministic = det;
  }

let max_rss_kib () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rss = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
               Scanf.sscanf
                 (String.sub line 6 (String.length line - 6))
                 " %d" (fun v -> rss := v)
           done
         with End_of_file -> ());
        !rss)
  with Sys_error _ -> 0

(* ---- JSON out --------------------------------------------------- *)

module Json = Tp_util.Json

let json_of_results ~jobs ~quality results =
  let num_i i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("schema", Json.Str "tpsim-bench/1");
      ("jobs", num_i jobs);
      ("quality", Json.Str quality);
      ("max_rss_kib", num_i (max_rss_kib ()));
      ( "experiments",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.r_name);
                   ("platform", Json.Str r.r_platform);
                   ("trials", num_i r.r_trials);
                   ("wall_s_seq", Json.Num r.r_wall_seq);
                   ("wall_s", Json.Num r.r_wall_par);
                   ("speedup", Json.Num r.r_speedup);
                   ("cycles", num_i r.r_cycles);
                   ("accesses", num_i r.r_accesses);
                   ("cycles_per_sec", Json.Num r.r_cycles_per_sec);
                   ("accesses_per_sec", Json.Num r.r_accesses_per_sec);
                   ("deterministic", Json.Bool r.r_deterministic);
                 ])
             results) );
    ]

(* ---- baseline gate ---------------------------------------------- *)

type regression = {
  g_name : string;
  g_platform : string;
  g_current : float;
  g_baseline : float;
  g_drop_pct : float;
}

(* Fails closed: a baseline without an experiments array, or with an
   entry lacking its name, platform or accesses/s, is an error rather
   than a gate that passes everything. *)
let check_baseline ~max_regress ~baseline results =
  let entry e =
    match
      ( Json.member "name" e,
        Json.member "platform" e,
        Json.member "accesses_per_sec" e )
    with
    | Some (Json.Str n), Some (Json.Str p), Some (Json.Num v) -> Some (n, p, v)
    | _ -> None
  in
  let regression base r =
    match
      List.find_opt (fun (n, p, _) -> n = r.r_name && p = r.r_platform) base
    with
    | Some (_, _, v) when v > 0.0 ->
        let drop = 100.0 *. (1.0 -. (r.r_accesses_per_sec /. v)) in
        if drop > max_regress then
          Some
            {
              g_name = r.r_name;
              g_platform = r.r_platform;
              g_current = r.r_accesses_per_sec;
              g_baseline = v;
              g_drop_pct = drop;
            }
        else None
    | _ -> None
  in
  match Json.member "experiments" baseline with
  | Some (Json.Arr l) ->
      let base = List.filter_map entry l in
      if List.length base < List.length l then
        Error "an experiment entry lacks its name, platform or accesses_per_sec"
      else Ok (List.filter_map (regression base) results)
  | _ -> Error "no \"experiments\" array"

(* ---- entry point ------------------------------------------------ *)

let quality_name = function Quality.Quick -> "quick" | Quality.Full -> "full"

let run q ~seed ~jobs ~platforms ~json_out ~baseline ~max_regress () =
  (* Throughput counts simulator work units, so the counters must be
     live; toggled here, outside any parallel region (Tp_obs.Ctl). *)
  let counters_were_on = Tp_obs.Ctl.counters_on () in
  Tp_obs.Ctl.set_counters true;
  let results =
    List.concat_map
      (fun p ->
        List.map (fun x -> run_exp q ~seed ~jobs p x) suite
        @ [ replay_sweep_exp q p ])
      platforms
  in
  if not counters_were_on then Tp_obs.Ctl.set_counters false;
  Format.printf "tpsim bench: %d jobs, quality %s, seed %d@." jobs
    (quality_name q) seed;
  List.iter
    (fun r ->
      Format.printf
        "  %-12s %-8s %2d trials  %7.3fs seq  %7.3fs par  %5.2fx  %10.0f \
         acc/s  %s@."
        r.r_name r.r_platform r.r_trials r.r_wall_seq r.r_wall_par r.r_speedup
        r.r_accesses_per_sec
        (if r.r_deterministic then "bit-identical" else "MISMATCH"))
    results;
  let nondet = List.filter (fun r -> not r.r_deterministic) results in
  List.iter
    (fun r ->
      if r.r_name = "replay-sweep" then
        Printf.eprintf
          "tpsim bench: FAIL %s/%s: replayed machine state differs from live \
           execution\n\
           %!"
          r.r_name r.r_platform
      else
        Printf.eprintf
          "tpsim bench: FAIL %s/%s: parallel output differs from sequential\n%!"
          r.r_name r.r_platform)
    nondet;
  (* The sweep hot path exists to buy this factor; losing it is a
     regression even if absolute throughput still clears the baseline. *)
  let slow_replay =
    List.filter
      (fun r ->
        r.r_name = "replay-sweep" && r.r_speedup < replay_speedup_floor)
      results
  in
  List.iter
    (fun r ->
      Printf.eprintf
        "tpsim bench: FAIL %s/%s: replay speedup %.2fx below the %.1fx floor\n%!"
        r.r_name r.r_platform r.r_speedup replay_speedup_floor)
    slow_replay;
  (match json_out with
  | None -> ()
  | Some f ->
      let oc = open_out f in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc
            (Json.to_string
               (json_of_results ~jobs ~quality:(quality_name q) results));
          output_char oc '\n');
      Printf.eprintf "tpsim bench: wrote %s\n%!" f);
  let gate =
    match baseline with
    | None -> Ok []
    | Some f -> (
        match
          let ic = open_in f in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> Json.parse (In_channel.input_all ic))
        with
        | j ->
            Result.map_error
              (Printf.sprintf "%s: %s" f)
              (check_baseline ~max_regress ~baseline:j results)
        | exception Sys_error msg -> Error msg
        | exception Json.Bad msg -> Error (Printf.sprintf "%s: %s" f msg))
  in
  let regressions =
    match gate with
    | Ok g -> g
    | Error msg ->
        Printf.eprintf "tpsim bench: FAIL: baseline %s\n%!" msg;
        []
  in
  List.iter
    (fun g ->
      Printf.eprintf
        "tpsim bench: REGRESSION %s/%s: %.0f accesses/s vs baseline %.0f \
         (-%.1f%% > %.1f%% allowed)\n%!"
        g.g_name g.g_platform g.g_current g.g_baseline g.g_drop_pct max_regress)
    regressions;
  if
    nondet <> [] || slow_replay <> [] || regressions <> [] || Result.is_error gate
  then 1
  else 0
