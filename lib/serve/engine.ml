module Store = Tp_store.Store
module Scenario = Tp_core.Scenario
module Harness = Tp_attacks.Harness

type cell = {
  cl_platform : string;
  cl_plat : Tp_hw.Platform.t;
  cl_config : string;
  cl_kind : Scenario.kind;
  cl_channel : string;
  cl_trial : int;
}

let point_dispatch = "job_dispatch"
let () = Tp_fault.Fault.register point_dispatch
let circuit_threshold = 5

(* Campaign telemetry (no-ops unless Tp_obs.Metrics is enabled).
   Latency clocks only tick when metrics are on, and nothing recorded
   here is ever read back by the engine, so a metrics-off run is
   bit-identical (enforced by test_serve). *)
module Metrics = Tp_obs.Metrics

let m_trials =
  Metrics.counter
    ~help:"Trials recorded, by outcome (complete, degraded, failed, cached)."
    "tpsim_engine_trials_total"

let m_retries =
  Metrics.counter ~help:"Retry attempts across all trials."
    "tpsim_engine_retries_total"

let m_jobs =
  Metrics.counter ~help:"Jobs finished, by final status."
    "tpsim_engine_jobs_total"

let m_circuit_opens =
  Metrics.counter ~help:"Circuit-breaker openings."
    "tpsim_engine_circuit_opens_total"

let m_circuit =
  Metrics.gauge ~help:"1 while the current job's circuit breaker is open."
    "tpsim_engine_circuit_open"

let m_trial_us =
  Metrics.histogram
    ~help:"Wall latency of one trial dispatch incl. retries, microseconds."
    "tpsim_engine_trial_us"

let m_job_us =
  Metrics.histogram ~help:"Wall latency of one job, microseconds."
    "tpsim_engine_job_us"

let m_drift =
  Metrics.counter
    ~help:
      "Leakage drift: trials whose measured MI exceeded their recorded \
       certified bound, by channel."
    "tpsim_engine_mi_over_cert_total"

let us_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)

(* Channels that exercise the kernel's domain-switch path: their
   measured MI is bounded by the switch-path certificate, not the
   guest-level one. *)
let switch_path_channels = [ "kernel"; "flush" ]

(* The drift monitor's predicate: a leak verdict above the bound the
   certifier recorded for this very trial (PR 4's guest cert, or the
   kernel switch-path cert for kernel/flush channels, stored with the
   result).  Degraded/complete only — a failed trial has no data. *)
let drifting (t : Protocol.trial) =
  let bound =
    if List.mem t.Protocol.t_channel switch_path_channels then
      t.Protocol.t_kcert_bits
    else t.Protocol.t_cert_bits
  in
  t.Protocol.t_status <> Protocol.Failed
  && t.Protocol.t_verdict = "leak"
  && t.Protocol.t_mi_bits > float_of_int bound

let platform_slugs =
  List.map (fun p -> (p.Tp_hw.Platform.name, p)) Tp_hw.Platform.all

let config_slugs = Scenario.slugs

let channel_slugs =
  [ "l1d"; "l1i"; "tlb"; "btb"; "bhb"; "l2"; "kernel"; "flush" ]

(* Channels whose senders are pure Machine-op bodies, eligible for the
   record-once / replay-many hot path.  The kernel and flush channels
   enter the kernel / read the clock, which poisons a recording; they
   always run live (and would self-disqualify anyway). *)
let replayable_channels = [ "l1d"; "l1i"; "tlb"; "btb"; "bhb"; "l2" ]

let code_rev =
  (* Hashing the executable once per process: any rebuild invalidates
     every cache entry, so a stale store can never answer for changed
     measurement code. *)
  let rev =
    lazy
      (try Digest.to_hex (Digest.file Sys.executable_name)
       with Sys_error _ -> "unknown-code-rev")
  in
  fun () -> Lazy.force rev

let lookup what table s =
  match List.assoc_opt s table with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "unknown %s %S (expected one of: %s)" what s
           (String.concat ", " (List.map fst table)))

let ( let* ) = Result.bind

let rec all_ok f = function
  | [] -> Ok []
  | x :: xs ->
      let* v = f x in
      let* vs = all_ok f xs in
      Ok (v :: vs)

let cells_of_job (j : Protocol.job) =
  let* () =
    if j.Protocol.j_platforms = [] then Error "job names no platforms"
    else if j.Protocol.j_configs = [] then Error "job names no configs"
    else if j.Protocol.j_channels = [] then Error "job names no channels"
    else Ok ()
  in
  let* plats =
    all_ok
      (fun s ->
        let* p = lookup "platform" platform_slugs s in
        Ok (s, p))
      j.Protocol.j_platforms
  in
  let* kinds =
    all_ok
      (fun s ->
        let* k = lookup "config" config_slugs s in
        Ok (s, k))
      j.Protocol.j_configs
  in
  let* chans =
    all_ok
      (fun s ->
        if List.mem s channel_slugs then Ok s
        else
          Error
            (Printf.sprintf "unknown channel %S (expected one of: %s)" s
               (String.concat ", " channel_slugs)))
      j.Protocol.j_channels
  in
  Ok
    (List.concat_map
       (fun (pslug, plat) ->
         List.concat_map
           (fun (cslug, kind) ->
             List.concat_map
               (fun chan ->
                 List.init j.Protocol.j_trials (fun t ->
                     {
                       cl_platform = pslug;
                       cl_plat = plat;
                       cl_config = cslug;
                       cl_kind = kind;
                       cl_channel = chan;
                       cl_trial = t;
                     }))
               chans)
           kinds)
       plats)

(* The cell's RNG stream depends only on (seed, platform, config,
   channel, trial) — never on the cell's position in the job, the job's
   shape, or the code rev — so a cell computed by a 1-cell job is
   bit-identical to the same cell inside a full-matrix sweep. *)
let cell_rng (j : Protocol.job) c =
  let tag =
    String.concat "\x00"
      [
        "tpsim-cell-rng";
        c.cl_platform;
        c.cl_config;
        c.cl_channel;
        string_of_int j.Protocol.j_seed;
        string_of_int c.cl_trial;
      ]
  in
  let d = Digest.string tag in
  Tp_util.Rng.create ~seed:(Int64.to_int (String.get_int64_le d 0))

let prepare_channel c b =
  let module Cc = Tp_attacks.Cache_channels in
  match c.cl_channel with
  | "kernel" ->
      (Tp_attacks.Kernel_chan.prepare b, Tp_attacks.Kernel_chan.symbols)
  | "flush" ->
      (Tp_attacks.Flush_chan.(prepare Offline) b, Tp_attacks.Flush_chan.symbols)
  | slug ->
      let ch =
        match slug with
        | "l1d" -> Cc.l1d
        | "l1i" -> Cc.l1i
        | "tlb" -> Cc.tlb
        | "btb" -> Cc.btb c.cl_plat
        | "bhb" -> Cc.bhb
        | "l2" -> Cc.l2
        | _ -> invalid_arg ("Tp_serve.Engine: unknown channel " ^ slug)
      in
      (ch.Cc.prepare b, ch.Cc.symbols)

(* ---- record-once / replay-many stream memo ---------------------- *)

(* Whether a cell may replay its sender: a function of the job alone. *)
let replays (j : Protocol.job) c =
  j.Protocol.j_replay && List.mem c.cl_channel replayable_channels

(* Per-(platform, config, channel) victim op streams, one slot per
   symbol, shared by every trial of the combination in this process.
   No trial waits for them: the first trial that sends a symbol records
   it (Harness.result.streams) and publishes it here, and later trials
   replay it from their first slice.  Booting and buffer allocation are
   deterministic and streams are position-independent, so a stream
   recorded in one trial is valid on every other trial's fresh boot. *)
let stream_memo :
    (string * string * string, Tp_hw.Replay.t option array) Hashtbl.t =
  Hashtbl.create 16

let stream_memo_mu = Mutex.create ()
let memo_key c = (c.cl_platform, c.cl_config, c.cl_channel)

(* The seed a replaying trial starts from: the streams the memo holds,
   and an empty ("not recorded yet") one for each symbol it lacks. *)
let streams_for (j : Protocol.job) c =
  if not (replays j c) then None
  else
    Mutex.protect stream_memo_mu (fun () ->
        Option.map
          (Array.map (function
            | Some r -> r
            | None -> Tp_hw.Replay.create ~initial_ops:1 ()))
          (Hashtbl.find_opt stream_memo (memo_key c)))

(* Merge a trial's complete streams into the memo, symbol by symbol:
   the first writer wins, so a published stream never changes. *)
let publish_streams c (streams : Tp_hw.Replay.t option array) =
  Mutex.protect stream_memo_mu (fun () ->
      match Hashtbl.find_opt stream_memo (memo_key c) with
      | None -> Hashtbl.replace stream_memo (memo_key c) streams
      | Some held ->
          Array.iteri
            (fun i r -> if Option.is_none held.(i) then held.(i) <- r)
            streams)

let cell_key ~code_rev (j : Protocol.job) c =
  Store.key ~code_rev
    ~parts:
      [
        "tpsim-store/6";
        c.cl_platform;
        c.cl_config;
        c.cl_channel;
        string_of_int j.Protocol.j_seed;
        string_of_int j.Protocol.j_samples;
        (match j.Protocol.j_trial_cycle_budget with
        | None -> "unbounded"
        | Some b -> string_of_int b);
        (* Whether the trial may replay.  The streams it would replay
           need no part of their own: a recorded stream is a
           deterministic function of the binary ([code_rev]), platform,
           config and channel, all already in the key. *)
        (if replays j c then "replay" else "no-replay");
        string_of_int c.cl_trial;
      ]

(* ---- kernel certificates, once per (platform, config) ------------ *)

(* Stored with every trial, so a result can always be traced back to
   the golden certificates it was measured under. *)
type kcert_fields = {
  kc_bits : int;
  kc_digest : string;
  kc_clone_digest : string;
  kc_destroy_digest : string;
}

(* [Kcert.certify] is a pure function of (platform, config) but costs
   milliseconds per path on x86, so each combination is certified once
   per process and shared by every trial, like [stream_memo].  The
   lock is held across the certification, and [Mutex.protect] releases
   it if certification raises. *)
let kcert_memo : (string * string, kcert_fields) Hashtbl.t = Hashtbl.create 16
let kcert_memo_mu = Mutex.create ()

let certify_kernel c =
  let cfg = Scenario.config c.cl_kind c.cl_plat in
  let kpath path =
    Tp_analysis.Kcert.certify ~path c.cl_plat ~config_name:c.cl_config cfg
  in
  let switch = kpath Tp_analysis.Kcert.Switch in
  {
    kc_bits = Tp_analysis.Kcert.total_bits switch;
    kc_digest = Tp_analysis.Kcert.digest switch;
    kc_clone_digest = Tp_analysis.Kcert.digest (kpath Tp_analysis.Kcert.Clone);
    kc_destroy_digest =
      Tp_analysis.Kcert.digest (kpath Tp_analysis.Kcert.Destroy);
  }

let kcert_for c =
  let key = (c.cl_platform, c.cl_config) in
  Mutex.protect kcert_memo_mu (fun () ->
      match Hashtbl.find_opt kcert_memo key with
      | Some v -> v
      | None ->
          let v = certify_kernel c in
          Hashtbl.replace kcert_memo key v;
          v)

let verdict_name = function
  | Tp_channel.Leakage.Leak -> "leak"
  | Tp_channel.Leakage.No_evidence -> "no-evidence"
  | Tp_channel.Leakage.Negligible -> "negligible"

let wall_reason = "wall-clock budget exhausted"

let compute_cell (j : Protocol.job) c =
  let b = Scenario.boot c.cl_kind c.cl_plat in
  let (sender, receiver), symbols = prepare_channel c b in
  let default = Harness.default_spec c.cl_plat in
  let spec =
    {
      default with
      Harness.samples = j.Protocol.j_samples;
      symbols;
      (* The kernel channel's receiver needs a longer slice on Arm. *)
      slice_cycles =
        (if c.cl_channel = "kernel" then
           Tp_attacks.Kernel_chan.slice_cycles c.cl_plat
         else default.Harness.slice_cycles);
      budget =
        {
          Harness.max_cycles = j.Protocol.j_trial_cycle_budget;
          max_wall_s = j.Protocol.j_trial_timeout_s;
        };
      replay = j.Protocol.j_replay;
      replay_seed = streams_for j c;
    }
  in
  let rng = cell_rng j c in
  let r = Harness.run_pair_result b ~sender ~receiver spec ~rng in
  if replays j c then publish_streams c r.Harness.streams;
  let n = Array.length r.Harness.data.Tp_channel.Mi.input in
  (* Wall-clock truncation depends on host load, so its partial dataset
     must never enter the content-addressed store: report it as a
     recomputable failure.  Cycle-budget truncation is a deterministic
     function of the key and is cached like any complete result. *)
  if r.Harness.degraded_reason = Some wall_reason then
    Error (Printf.sprintf "trial wall timeout after %d samples" n)
  else if n = 0 then
    Error
      (Printf.sprintf "no samples collected%s"
         (match r.Harness.degraded_reason with
         | Some why -> ": " ^ why
         | None -> ""))
  else
    let leak = Tp_channel.Leakage.test ~rng r.Harness.data in
    let kc = kcert_for c in
    Ok
      (Protocol.stored_of_trial
         {
           Protocol.t_platform = c.cl_platform;
           t_config = c.cl_config;
           t_channel = c.cl_channel;
           t_trial = c.cl_trial;
           t_key = "";
           t_status =
             (if r.Harness.degraded then Protocol.Degraded
              else Protocol.Complete);
           t_mi_bits = leak.Tp_channel.Leakage.m;
           t_m0_bits = leak.Tp_channel.Leakage.m0;
           t_verdict = verdict_name leak.Tp_channel.Leakage.verdict;
           t_n = n;
           t_cert_bits = Tp_analysis.Certify.total_bits r.Harness.cert;
           t_kcert_bits = kc.kc_bits;
           t_kcert_digest = kc.kc_digest;
           t_kcert_clone_digest = kc.kc_clone_digest;
           t_kcert_destroy_digest = kc.kc_destroy_digest;
           t_code_rev = code_rev ();
           t_degraded_reason = r.Harness.degraded_reason;
           t_recovered_faults = r.Harness.recovered_faults;
           t_checkpoints = r.Harness.checkpoints;
           t_retries = 0;
           t_cached = false;
         })

(* ---- job execution ----------------------------------------------- *)

let failed_trial c ~key ~retries reason =
  {
    Protocol.t_platform = c.cl_platform;
    t_config = c.cl_config;
    t_channel = c.cl_channel;
    t_trial = c.cl_trial;
    t_key = key;
    t_status = Protocol.Failed;
    t_mi_bits = 0.0;
    t_m0_bits = 0.0;
    t_verdict = "no-data";
    t_n = 0;
    t_cert_bits = 0;
    t_kcert_bits = 0;
    t_kcert_digest = "";
    t_kcert_clone_digest = "";
    t_kcert_destroy_digest = "";
    t_code_rev = "";
    t_degraded_reason = Some reason;
    t_recovered_faults = 0;
    t_checkpoints = 0;
    t_retries = retries;
    t_cached = false;
  }

(* One attempt plus up to [j_max_retries] retries with exponential
   backoff.  Traps everything: a worker fault must surface as a Failed
   trial, not tear down the pool. *)
let attempt_cell ~compute (j : Protocol.job) c =
  let rec go attempt =
    let outcome =
      match compute j c with
      | r -> r
      | exception e -> Error ("worker fault: " ^ Printexc.to_string e)
    in
    match outcome with
    | Ok blob -> (Ok blob, attempt)
    | Error why ->
        if attempt >= j.Protocol.j_max_retries then (Error why, attempt)
        else begin
          let backoff =
            j.Protocol.j_retry_backoff_s *. (2.0 ** float_of_int attempt)
          in
          if backoff > 0.0 then Unix.sleepf backoff;
          go (attempt + 1)
        end
  in
  go 0

let job_digest ~store trials =
  let pairs =
    List.filter_map
      (fun (t : Protocol.trial) ->
        if t.Protocol.t_status = Protocol.Failed then None
        else
          Option.map
            (fun d -> t.Protocol.t_key ^ "=" ^ d)
            (Store.content_digest store t.Protocol.t_key))
      trials
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare pairs)))

let run_job ~store ?code_rev:rev ?jobs ?progress ?(compute = compute_cell)
    (j : Protocol.job) =
  let* cells = cells_of_job j in
  let rev = match rev with Some r -> r | None -> code_rev () in
  let jobs_n =
    match jobs with
    | Some n -> Stdlib.max 1 n
    | None -> Tp_par.Pool.default_jobs ()
  in
  let total = List.length cells in
  let keyed = List.map (fun c -> (c, cell_key ~code_rev:rev j c)) cells in
  let trials = Array.make total None in
  let t_job = if Metrics.enabled () then Unix.gettimeofday () else 0.0 in
  Metrics.set m_circuit 0.0;
  let cached = ref 0 and failed = ref 0 and retried = ref 0 in
  let done_ = ref 0 in
  let consecutive = ref 0 in
  let stop_reason = ref None in
  let record i t =
    trials.(i) <- Some t;
    incr done_;
    (match t.Protocol.t_status with
    | Protocol.Failed ->
        incr failed;
        incr consecutive
    | Protocol.Complete | Protocol.Degraded -> consecutive := 0);
    retried := !retried + t.Protocol.t_retries;
    if t.Protocol.t_cached then incr cached;
    let outcome =
      if t.Protocol.t_cached then "cached"
      else Protocol.status_name t.Protocol.t_status
    in
    Metrics.inc m_trials ~labels:[ ("outcome", outcome) ];
    if t.Protocol.t_retries > 0 then
      Metrics.inc m_retries ~by:t.Protocol.t_retries;
    if drifting t then
      Metrics.inc m_drift ~labels:[ ("channel", t.Protocol.t_channel) ]
  in
  let emit () =
    match progress with
    | None -> ()
    | Some f ->
        f
          {
            Protocol.p_done = !done_;
            p_total = total;
            p_cached = !cached;
            p_failed = !failed;
            p_retried = !retried;
            p_dropped_spans = Tp_obs.Trace.dropped ();
          }
  in
  (* Answer everything the store already holds; a resubmission of a
     completed job is nothing but this scan. *)
  let pending = ref [] in
  List.iteri
    (fun i (c, key) ->
      match Store.find store key with
      | None -> pending := (i, c, key) :: !pending
      | Some blob -> (
          match Protocol.trial_of_stored ~key blob with
          | Ok t -> record i t
          | Error why ->
              (* Digest-valid but unparseable: a schema change without a
                 code-rev change.  Fail loudly rather than recompute
                 into a key [put] would refuse to overwrite. *)
              record i
                (failed_trial c ~key ~retries:0
                   ("stored trial unreadable: " ^ why))))
    keyed;
  let pending = Array.of_list (List.rev !pending) in
  let n_pending = Array.length pending in
  consecutive := 0;
  if !done_ > 0 then emit ();
  let deadline =
    Option.map
      (fun s -> Unix.gettimeofday () +. s)
      j.Protocol.j_wall_budget_s
  in
  let check_deadline () =
    match deadline with
    | Some d when !stop_reason = None && Unix.gettimeofday () >= d ->
        stop_reason := Some "job wall budget exhausted"
    | Some _ | None -> ()
  in
  (* Progress every [2 × jobs] commits and after the last one. *)
  let every = 2 * jobs_n in
  let committed = ref 0 in
  let commit k (out, retries) =
    let i, c, key = pending.(k) in
    (match out with
    | Ok blob -> (
        (* Store before anything depends on the result: a crash after
           this put resumes with the cell already answered. *)
        Store.put store ~key blob;
        match Protocol.trial_of_stored ~key blob with
        | Ok t ->
            record i { t with Protocol.t_cached = false; t_retries = retries }
        | Error why ->
            record i
              (failed_trial c ~key ~retries
                 ("computed trial unreadable: " ^ why)))
    | Error why -> record i (failed_trial c ~key ~retries why));
    incr committed;
    if !consecutive >= circuit_threshold && !stop_reason = None then begin
      stop_reason :=
        Some
          (Printf.sprintf "circuit open after %d consecutive trial failures"
             !consecutive);
      Metrics.inc m_circuit_opens;
      Metrics.set m_circuit 1.0
    end;
    check_deadline ();
    if
      !committed mod every = 0
      || !committed = n_pending
      || !stop_reason <> None
    then emit ();
    if !stop_reason = None then `Continue else `Stop
  in
  check_deadline ();
  if !stop_reason = None then
    Tp_par.Pool.run_ordered ~jobs:jobs_n n_pending
      (fun k ->
        let _, c, _ = pending.(k) in
        (* One crossing per cell, just before it is computed, so
           fail-at-step-N can crash a sweep between any two cells. *)
        Tp_fault.Fault.hit point_dispatch;
        if Metrics.enabled () then begin
          let t0 = Unix.gettimeofday () in
          let out = attempt_cell ~compute j c in
          Metrics.observe m_trial_us (us_since t0);
          out
        end
        else attempt_cell ~compute j c)
      ~commit;
  (* Graceful degradation: everything committed (and stored) is kept;
     the rest — even cells a worker already computed — is reported
     failed with the stop reason and recomputed on resubmission. *)
  if !committed < n_pending then begin
    let why = Option.get !stop_reason in
    for k = !committed to n_pending - 1 do
      let i, c, key = pending.(k) in
      record i (failed_trial c ~key ~retries:0 why)
    done;
    emit ()
  end;
  let trials = Array.to_list trials |> List.map Option.get in
  let degraded =
    List.length
      (List.filter
         (fun (t : Protocol.trial) -> t.Protocol.t_status = Protocol.Degraded)
         trials)
  in
  let status =
    if !failed = total then Protocol.Failed
    else if !failed > 0 || degraded > 0 || !stop_reason <> None then
      Protocol.Degraded
    else Protocol.Complete
  in
  if Metrics.enabled () then begin
    Metrics.observe m_job_us (us_since t_job);
    Metrics.inc m_jobs ~labels:[ ("status", Protocol.status_name status) ]
  end;
  Ok
    {
      Protocol.r_id = j.Protocol.j_id;
      r_status = status;
      r_reason = !stop_reason;
      r_total = total;
      r_computed = total - !cached - !failed;
      r_cached = !cached;
      r_degraded = degraded;
      r_failed = !failed;
      r_retried = !retried;
      r_digest = job_digest ~store trials;
      r_trials = trials;
    }
