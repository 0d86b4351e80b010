(* Campaign-service protocol and engine: wire round-trips, cache
   semantics, retry/circuit/budget robustness, and crash-resume
   bit-identity under injected dispatch and store faults. *)

module P = Tp_serve.Protocol
module E = Tp_serve.Engine
module Store = Tp_store.Store

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tp-test-serve-%d-%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_store dir f =
  let s = Store.open_ ~dir in
  Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A deterministic stand-in for the measurement: blob content is a
   pure function of the cell, so digests are comparable across runs
   without paying for real trials. *)
let stub_trial (c : E.cell) =
  {
    P.t_platform = c.E.cl_platform;
    t_config = c.E.cl_config;
    t_channel = c.E.cl_channel;
    t_trial = c.E.cl_trial;
    t_key = "";
    t_status = P.Complete;
    t_mi_bits = float_of_int c.E.cl_trial *. 0.125;
    t_m0_bits = 0.25;
    t_verdict = "no-evidence";
    t_n = 100;
    t_cert_bits = 0;
    t_kcert_bits = 0;
    t_kcert_digest = "stub-kcert-digest";
    t_kcert_clone_digest = "stub-kcert-clone-digest";
    t_kcert_destroy_digest = "stub-kcert-destroy-digest";
    t_code_rev = "test-rev";
    t_degraded_reason = None;
    t_recovered_faults = 0;
    t_checkpoints = 3;
    t_retries = 0;
    t_cached = false;
  }

let stub_compute _job c = Ok (P.stored_of_trial (stub_trial c))

let job ?(channels = [ "l1d"; "kernel" ]) ?(trials = 2) ?max_retries
    ?wall_budget_s ?retry_backoff_s () =
  P.job ~id:"test" ~platforms:[ "haswell" ] ~configs:[ "protected" ]
    ~channels ~trials ~seed:7 ~samples:100 ?max_retries ?wall_budget_s
    ?retry_backoff_s ()

let run_stub ?compute store j =
  match
    E.run_job ~store ~code_rev:"test-rev" ~jobs:1
      ~compute:(Option.value compute ~default:stub_compute)
      j
  with
  | Ok r -> r
  | Error e -> Alcotest.fail ("run_job rejected: " ^ e)

(* ---- protocol ---------------------------------------------------- *)

let test_job_roundtrip () =
  let j =
    P.job ~id:"rt" ~platforms:[ "haswell"; "sabre" ] ~configs:[ "raw" ]
      ~channels:[ "l1d" ] ~trials:3 ~seed:9 ~samples:42 ~trial_cycle_budget:5000
      ~trial_timeout_s:1.5 ~wall_budget_s:30.0 ~max_retries:4
      ~retry_backoff_s:0.25 ()
  in
  match P.job_of_json (P.job_to_json j) with
  | Ok j' -> Alcotest.(check bool) "job round-trips" true (j = j')
  | Error e -> Alcotest.fail e

let test_job_validation () =
  let bad = P.job_to_json (P.job ~trials:0 ()) in
  (match P.job_of_json bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trials=0 accepted");
  match P.job_of_json (Tp_util.Json.Obj [ ("id", Tp_util.Json.Str "x") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "field-less job accepted"

let test_stored_blob_roundtrip () =
  let t =
    { (stub_trial { E.cl_platform = "haswell"; cl_plat = Tp_hw.Platform.haswell;
                    cl_config = "protected"; cl_kind = Tp_core.Scenario.Protected;
                    cl_channel = "l1d"; cl_trial = 1 })
      with P.t_status = P.Degraded;
           t_degraded_reason = Some "cycle budget exhausted";
           t_recovered_faults = 2;
           t_retries = 5;
           t_cached = false }
  in
  let blob = P.stored_of_trial t in
  Alcotest.(check bool)
    "blob carries the v4 schema tag" true
    (contains_sub blob "tpsim-trial/4");
  Alcotest.(check bool)
    "blob records the kernel cert digest" true
    (contains_sub blob "stub-kcert-digest");
  Alcotest.(check bool)
    "blob records the clone and destroy cert digests" true
    (contains_sub blob "stub-kcert-clone-digest"
    && contains_sub blob "stub-kcert-destroy-digest");
  match P.trial_of_stored ~key:"k" blob with
  | Error e -> Alcotest.fail e
  | Ok t' ->
      (* Deterministic fields survive; execution metadata does not. *)
      Alcotest.(check bool)
        "deterministic fields equal" true
        ({ t with P.t_key = "k"; t_retries = 0; t_cached = true } = t');
      Alcotest.(check int) "retries not stored" 0 t'.P.t_retries;
      Alcotest.(check bool) "reads as cached" true t'.P.t_cached;
      Alcotest.(check string)
        "blob is canonical" blob
        (P.stored_of_trial { t' with P.t_key = ""; t_cached = false })

let test_result_roundtrip () =
  with_dir (fun dir ->
      with_store dir (fun store ->
          let r = run_stub store (job ()) in
          match P.result_of_json (P.result_to_json r) with
          | Ok r' -> Alcotest.(check bool) "result round-trips" true (r = r')
          | Error e -> Alcotest.fail e))

(* ---- engine ------------------------------------------------------ *)

let test_bad_job_rejected () =
  with_dir (fun dir ->
      with_store dir (fun store ->
          match
            E.run_job ~store ~code_rev:"r" ~jobs:1 ~compute:stub_compute
              (P.job ~platforms:[ "pdp11" ] ())
          with
          | Error e ->
              Alcotest.(check bool)
                "names the bad platform" true
                (contains_sub e "pdp11")
          | Ok _ -> Alcotest.fail "unknown platform accepted"))

let test_complete_then_cached () =
  with_dir (fun dir ->
      with_store dir (fun store ->
          let j = job () in
          let progress = ref [] in
          let r =
            match
              E.run_job ~store ~code_rev:"test-rev" ~jobs:1
                ~compute:stub_compute
                ~progress:(fun p -> progress := p :: !progress)
                j
            with
            | Ok r -> r
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check bool) "complete" true (r.P.r_status = P.Complete);
          Alcotest.(check int) "total" 4 r.P.r_total;
          Alcotest.(check int) "computed" 4 r.P.r_computed;
          Alcotest.(check int) "cached" 0 r.P.r_cached;
          Alcotest.(check int) "failed" 0 r.P.r_failed;
          Alcotest.(check int) "trials listed" 4 (List.length r.P.r_trials);
          Alcotest.(check bool) "progress streamed" true (!progress <> []);
          Alcotest.(check bool)
            "final progress is total" true
            ((List.hd !progress).P.p_done = 4);
          Alcotest.(check int) "store holds the trials" 4 (Store.count store);
          (* Resubmission: answered entirely from the store, same
             digest, trials flagged cached. *)
          let r2 = run_stub store j in
          Alcotest.(check int) "all cached" 4 r2.P.r_cached;
          Alcotest.(check int) "nothing recomputed" 0 r2.P.r_computed;
          Alcotest.(check string) "digest stable" r.P.r_digest r2.P.r_digest;
          Alcotest.(check bool)
            "every trial flagged cached" true
            (List.for_all (fun t -> t.P.t_cached) r2.P.r_trials)))

let test_cell_key_independent_of_job_shape () =
  let j1 = job ~channels:[ "l1d" ] ~trials:1 () in
  let j4 = job ~channels:[ "kernel"; "l1d" ] ~trials:2 () in
  let cell c = List.nth (Result.get_ok (E.cells_of_job c)) 0 in
  let c1 = cell j1 in
  let c4 =
    List.find
      (fun c -> c.E.cl_channel = "l1d" && c.E.cl_trial = 0)
      (Result.get_ok (E.cells_of_job j4))
  in
  Alcotest.(check string)
    "same cell, same key, any job shape"
    (E.cell_key ~code_rev:"r" j1 c1)
    (E.cell_key ~code_rev:"r" j4 c4)

let test_retry_recovers_transient () =
  with_dir (fun dir ->
      with_store dir (fun store ->
          (* Every cell fails once, then succeeds: with one retry the
             job completes and reports the attempts. *)
          let attempts = Hashtbl.create 8 in
          let flaky j (c : E.cell) =
            let key = (c.E.cl_channel, c.E.cl_trial) in
            let n = Option.value ~default:0 (Hashtbl.find_opt attempts key) in
            Hashtbl.replace attempts key (n + 1);
            if n = 0 then Error "transient worker fault"
            else stub_compute j c
          in
          let r =
            run_stub ~compute:flaky store
              (job ~max_retries:2 ~retry_backoff_s:0.0 ())
          in
          Alcotest.(check bool) "complete" true (r.P.r_status = P.Complete);
          Alcotest.(check int) "failed" 0 r.P.r_failed;
          Alcotest.(check int) "one retry per cell" 4 r.P.r_retried;
          Alcotest.(check bool)
            "trials carry their retry count" true
            (List.for_all (fun t -> t.P.t_retries = 1) r.P.r_trials)))

let test_retries_exhausted_fails_trial () =
  with_dir (fun dir ->
      with_store dir (fun store ->
          let always_fail _ _ = Error "permanent fault" in
          let r =
            run_stub ~compute:always_fail store
              (job ~channels:[ "l1d" ] ~trials:1 ~max_retries:2
                 ~retry_backoff_s:0.0 ())
          in
          Alcotest.(check bool) "failed" true (r.P.r_status = P.Failed);
          Alcotest.(check int) "retries burned" 2 r.P.r_retried;
          Alcotest.(check int) "nothing stored" 0 (Store.count store)))

let test_circuit_breaker () =
  with_dir (fun dir ->
      with_store dir (fun store ->
          let calls = ref 0 in
          let always_fail _ _ =
            incr calls;
            Error "sick worker"
          in
          let r =
            run_stub ~compute:always_fail store
              (job ~channels:[ "l1d" ] ~trials:16 ~max_retries:0 ())
          in
          Alcotest.(check bool) "failed" true (r.P.r_status = P.Failed);
          Alcotest.(check bool)
            "reason names the circuit" true
            (match r.P.r_reason with
            | Some why -> contains_sub why "circuit open"
            | None -> false);
          Alcotest.(check int) "every trial reported" 16 r.P.r_total;
          Alcotest.(check bool)
            (Printf.sprintf "breaker saved work (%d calls)" !calls)
            true (!calls < 16)))

(* The breaker counts failures in cell order, after every commit, so a
   failing job's reply is the same at every jobs level: cell 0 stored,
   cells 1-5 failed by the stub, the rest failed by the open circuit. *)
let test_failing_reply_independent_of_jobs () =
  let fail_from_1 j (c : E.cell) =
    if c.E.cl_trial >= 1 then Error "sick worker" else stub_compute j c
  in
  let reply jobs =
    with_dir (fun dir ->
        with_store dir (fun store ->
            match
              E.run_job ~store ~code_rev:"test-rev" ~jobs ~compute:fail_from_1
                (job ~channels:[ "l1d" ] ~trials:16 ~max_retries:0 ())
            with
            | Error e -> Alcotest.fail ("run_job rejected: " ^ e)
            | Ok r ->
                ( List.map
                    (fun t ->
                      (P.status_name t.P.t_status, t.P.t_degraded_reason))
                    r.P.r_trials,
                  r.P.r_reason,
                  r.P.r_failed,
                  Store.count store )))
  in
  let ((_, reason, failed, stored) as seq) = reply 1 in
  Alcotest.(check (option string))
    "circuit opens after 5 failures"
    (Some "circuit open after 5 consecutive trial failures")
    reason;
  Alcotest.(check int) "failed" 15 failed;
  Alcotest.(check int) "stored" 1 stored;
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "-j %d reply = -j 1 reply" jobs)
        true
        (reply jobs = seq))
    [ 2; 3 ]

let test_wall_budget_degrades () =
  with_dir (fun dir ->
      with_store dir (fun store ->
          let r = run_stub store (job ~wall_budget_s:0.0 ()) in
          Alcotest.(check bool)
            "reason is the wall budget" true
            (r.P.r_reason = Some "job wall budget exhausted");
          Alcotest.(check int) "all trials reported" 4 r.P.r_total;
          Alcotest.(check int) "all failed" 4 r.P.r_failed;
          (* Failed-by-budget trials are recomputable: nothing was
             poisoned in the store, and a resubmission with budget
             completes. *)
          Alcotest.(check int) "store untouched" 0 (Store.count store);
          let r2 = run_stub store (job ()) in
          Alcotest.(check bool) "resubmission completes" true
            (r2.P.r_status = P.Complete)))

(* Crash the dispatch loop at every job_dispatch crossing (simulated
   process death), resume into the same store, and require the final
   digest to match an uninterrupted run into a fresh store. *)
let test_crash_resume_dispatch () =
  with_dir (fun dir ->
      let j = job () in
      let reference =
        with_store (Filename.concat dir "ref") (fun s -> (run_stub s j).P.r_digest)
      in
      let crash_dir = Filename.concat dir "crash" in
      let fired = ref 0 in
      for hit = 0 to 3 do
        let st = Store.open_ ~dir:crash_dir in
        Tp_fault.Fault.arm ~point:E.point_dispatch ~hit
          (Failure "injected dispatch crash");
        (match
           E.run_job ~store:st ~code_rev:"test-rev" ~jobs:1
             ~compute:stub_compute j
         with
        | Ok _ | Error _ -> ()
        | exception Failure _ -> incr fired);
        Tp_fault.Fault.disarm ();
        Store.close st
      done;
      Alcotest.(check bool) "some crossings crashed" true (!fired > 0);
      let resumed =
        with_store crash_dir (fun s -> (run_stub s j).P.r_digest)
      in
      Alcotest.(check string) "digest bit-identical" reference resumed)

(* Same property under persistence-path faults: crash inside the store
   commit protocol at every write/fsync/rename crossing of the sweep's
   first commits, resume, compare digests. *)
let test_crash_resume_store_faults () =
  with_dir (fun dir ->
      let j = job () in
      let reference =
        with_store (Filename.concat dir "ref") (fun s -> (run_stub s j).P.r_digest)
      in
      let crash_dir = Filename.concat dir "crash" in
      let fired = ref 0 in
      List.iter
        (fun point ->
          for hit = 0 to 4 do
            let st = Store.open_ ~dir:crash_dir in
            Tp_fault.Fault.arm ~point ~hit (Failure "injected store crash");
            (match
               E.run_job ~store:st ~code_rev:"test-rev" ~jobs:1
                 ~compute:stub_compute j
             with
            | Ok _ | Error _ -> ()
            | exception Failure _ -> incr fired);
            Tp_fault.Fault.disarm ();
            (try Store.close st with Unix.Unix_error _ -> ())
          done)
        [ Store.point_write; Store.point_fsync; Store.point_rename ];
      Alcotest.(check bool) "some store steps crashed" true (!fired > 0);
      let resumed =
        with_store crash_dir (fun s -> (run_stub s j).P.r_digest)
      in
      Alcotest.(check string) "digest bit-identical" reference resumed)

(* Real measurement semantics of the two budget kinds: a simulated-
   cycle budget degrades deterministically and is cached; a wall-clock
   timeout fails the trial and stores nothing. *)
let test_cycle_budget_cached_wall_timeout_not () =
  with_dir (fun dir ->
      with_store dir (fun store ->
          let base =
            P.job ~id:"real" ~platforms:[ "haswell" ] ~configs:[ "protected" ]
              ~channels:[ "l1d" ] ~trials:1 ~seed:3 ~samples:60
          in
          let budgeted = base ~trial_cycle_budget:2_000_000 () in
          let r =
            match E.run_job ~store ~jobs:1 budgeted with
            | Ok r -> r
            | Error e -> Alcotest.fail e
          in
          let t = List.hd r.P.r_trials in
          Alcotest.(check bool) "trial degraded" true (t.P.t_status = P.Degraded);
          Alcotest.(check bool)
            "reason is the cycle budget" true
            (t.P.t_degraded_reason = Some "cycle budget exhausted");
          Alcotest.(check int) "degraded result cached" 1 (Store.count store);
          let r2 =
            match E.run_job ~store ~jobs:1 budgeted with
            | Ok r -> r
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check int) "cache hit" 1 r2.P.r_cached;
          Alcotest.(check string) "digest stable" r.P.r_digest r2.P.r_digest;
          (* Wall timeout: host-dependent, so failed and never stored. *)
          let timed_out = base ~trial_timeout_s:0.0 ~max_retries:0 () in
          let r3 =
            match E.run_job ~store ~jobs:1 timed_out with
            | Ok r -> r
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check bool) "trial failed" true (r3.P.r_status = P.Failed);
          Alcotest.(check bool)
            "reason names the timeout" true
            (match (List.hd r3.P.r_trials).P.t_degraded_reason with
            | Some why -> contains_sub why "wall timeout"
            | None -> false);
          Alcotest.(check int)
            "wall-degraded data never stored" 1 (Store.count store)))

(* The kernel channel's receiver needs its own slice on Arm
   (Kernel_chan.slice_cycles): the 1 ms default is too short for its
   probe passes to complete a single sample there. *)
let test_arm_kernel_cell_completes () =
  with_dir (fun dir ->
      with_store dir (fun store ->
          let j =
            P.job ~id:"arm-kernel" ~platforms:[ "sabre" ]
              ~configs:[ "protected" ] ~channels:[ "kernel" ] ~trials:1
              ~seed:1 ~samples:40 ~max_retries:0 ()
          in
          match E.run_job ~store ~jobs:1 j with
          | Error e -> Alcotest.fail e
          | Ok r ->
              Alcotest.(check string) "job complete" "complete"
                (P.status_name r.P.r_status);
              Alcotest.(check int) "all samples" 40
                (List.hd r.P.r_trials).P.t_n))

(* ---- telemetry --------------------------------------------------- *)

(* The zero-perturbation gate for the metrics layer: the same sweep
   (raw + protected, real compute) run with metrics recording on and
   off must produce bit-identical campaign digests. *)
let test_metrics_digest_identical () =
  with_dir (fun dir ->
      let j =
        P.job ~id:"mt" ~platforms:[ "haswell" ]
          ~configs:[ "raw"; "protected" ] ~channels:[ "l1d" ] ~trials:1
          ~seed:11 ~samples:60 ()
      in
      let digest sub =
        with_store (Filename.concat dir sub) (fun store ->
            match E.run_job ~store ~jobs:1 j with
            | Ok r -> r.P.r_digest
            | Error e -> Alcotest.fail e)
      in
      Tp_obs.Metrics.set_enabled false;
      let off = digest "off" in
      let on =
        Fun.protect
          ~finally:(fun () ->
            Tp_obs.Metrics.set_enabled false;
            Tp_obs.Metrics.reset ())
          (fun () ->
            Tp_obs.Metrics.set_enabled true;
            digest "on")
      in
      Alcotest.(check string)
        "digests bit-identical with metrics on/off" off on)

(* The leakage-drift predicate: fires only on a non-failed leak verdict
   whose measured MI exceeds the recorded certified bound. *)
let test_drift_predicate () =
  let base =
    stub_trial
      {
        E.cl_platform = "haswell";
        cl_plat = Tp_hw.Platform.haswell;
        cl_config = "protected";
        cl_kind = Tp_core.Scenario.Protected;
        cl_channel = "l1d";
        cl_trial = 0;
      }
  in
  let t = { base with P.t_verdict = "leak"; t_mi_bits = 3.5; t_cert_bits = 2 } in
  Alcotest.(check bool) "leak over bound drifts" true (E.drifting t);
  Alcotest.(check bool)
    "leak within bound ok" false
    (E.drifting { t with P.t_cert_bits = 4 });
  Alcotest.(check bool)
    "no-evidence verdict never drifts" false
    (E.drifting { t with P.t_verdict = "no-evidence" });
  Alcotest.(check bool)
    "failed trials never drift" false
    (E.drifting { t with P.t_status = P.Failed });
  (* Switch-path channels are judged against the recorded kernel
     switch-path certificate bound, not the guest-level one. *)
  let k =
    { t with P.t_channel = "kernel"; t_cert_bits = 0; t_kcert_bits = 4 }
  in
  Alcotest.(check bool)
    "kernel channel within kcert bound ok" false (E.drifting k);
  Alcotest.(check bool)
    "kernel channel over kcert bound drifts" true
    (E.drifting { k with P.t_kcert_bits = 2 });
  Alcotest.(check bool)
    "flush channel judged by kcert bound too" true
    (E.drifting { k with P.t_channel = "flush"; t_kcert_bits = 2 })

(* An engine run with metrics on populates the drift counter for
   trials whose stored cert bound is below the measured MI. *)
let test_drift_counter_increments () =
  with_dir (fun dir ->
      with_store dir (fun store ->
          Fun.protect
            ~finally:(fun () ->
              Tp_obs.Metrics.set_enabled false;
              Tp_obs.Metrics.reset ())
            (fun () ->
              Tp_obs.Metrics.set_enabled true;
              Tp_obs.Metrics.reset ();
              let leaky j c =
                Result.map
                  (fun blob ->
                    match P.trial_of_stored ~key:"" blob with
                    | Ok t ->
                        P.stored_of_trial
                          {
                            t with
                            P.t_verdict = "leak";
                            t_mi_bits = 9.0;
                            t_cert_bits = 1;
                          }
                    | Error _ -> blob)
                  (stub_compute j c)
              in
              let r =
                run_stub ~compute:leaky store
                  (job ~channels:[ "l1d" ] ~trials:2 ())
              in
              Alcotest.(check bool)
                "trials drifted" true
                (List.for_all E.drifting r.P.r_trials);
              let fam = Tp_obs.Metrics.counter "tpsim_engine_mi_over_cert_total" in
              Alcotest.(check (option (float 0.0)))
                "drift counter counted both trials" (Some 2.0)
                (Tp_obs.Metrics.value ~labels:[ ("channel", "l1d") ] fam))))

(* ---- top: exposition parsing and quantiles ----------------------- *)

module Top = Tp_serve.Top

let synthetic_exposition =
  String.concat "\n"
    [
      "# HELP tpsim_engine_trials_total Trials.";
      "# TYPE tpsim_engine_trials_total counter";
      "tpsim_engine_trials_total{outcome=\"complete\"} 7";
      "tpsim_engine_trials_total{outcome=\"failed\"} 1";
      "# TYPE tpsim_engine_trial_us histogram";
      "tpsim_engine_trial_us_bucket{le=\"100\"} 2";
      "tpsim_engine_trial_us_bucket{le=\"1000\"} 7";
      "tpsim_engine_trial_us_bucket{le=\"+Inf\"} 8";
      "tpsim_engine_trial_us_sum 4242";
      "tpsim_engine_trial_us_count 8";
      "# TYPE tpsim_store_entries gauge";
      "tpsim_store_entries 42";
      "this line is garbage and must be skipped";
      "# EOF";
    ]

let test_top_parse () =
  let e = Top.parse synthetic_exposition in
  Alcotest.(check (option string))
    "type recorded" (Some "histogram")
    (List.assoc_opt "tpsim_engine_trial_us" e.Top.e_types);
  Alcotest.(check (option (float 0.0)))
    "labelled lookup" (Some 7.0)
    (Top.value ~labels:[ ("outcome", "complete") ] e
       "tpsim_engine_trials_total");
  Alcotest.(check (float 0.0))
    "total sums label sets" 8.0
    (Top.total e "tpsim_engine_trials_total");
  Alcotest.(check (option (float 0.0)))
    "gauge" (Some 42.0)
    (Top.value e "tpsim_store_entries");
  Alcotest.(check
              (list (pair string (float 0.0))))
    "by_label in exposition order"
    [ ("complete", 7.0); ("failed", 1.0) ]
    (Top.by_label e "tpsim_engine_trials_total" "outcome")

let test_top_quantile () =
  let e = Top.parse synthetic_exposition in
  (* count=8: ranks 1..2 -> le 100, 3..7 -> le 1000, 8 -> +Inf (last
     finite bucket answers). *)
  Alcotest.(check (option (float 0.0)))
    "p25 in first bucket" (Some 100.0)
    (Top.quantile e "tpsim_engine_trial_us" 25.0);
  Alcotest.(check (option (float 0.0)))
    "p50 in second bucket" (Some 1000.0)
    (Top.quantile e "tpsim_engine_trial_us" 50.0);
  Alcotest.(check (option (float 0.0)))
    "p100 clamps to last finite bucket" (Some 1000.0)
    (Top.quantile e "tpsim_engine_trial_us" 100.0);
  Alcotest.(check (option (float 0.0)))
    "empty family has no quantile" None
    (Top.quantile e "tpsim_engine_job_us" 50.0)

let test_top_render () =
  let e = Top.parse synthetic_exposition in
  let frame = Top.render ~now:0.0 e in
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "frame mentions %s" sub)
        true (contains_sub frame sub))
    [ "throughput"; "latency"; "store"; "pool"; "leakage"; "p99" ];
  (* Second frame with a prev scrape turns counters into a rate. *)
  let frame2 = Top.render ~prev:(Top.empty, 2.0) ~now:2.0 e in
  Alcotest.(check bool)
    "rate appears with a previous scrape" true
    (contains_sub frame2 "trials/s")

(* ---- kernel certificate memo ------------------------------------ *)

(* Two trials of one (platform, config) at -j 2: both workers' first
   kernel-certificate lookups race on an empty memo entry — no other
   test in this suite runs armv8 x no-prefetcher, and this test runs
   before the one below fills the memo — and the job must still digest
   exactly as at -j 1. *)
let test_kcert_memo_race_par_eq_seq () =
  let j =
    P.job ~id:"kcert-race" ~platforms:[ "armv8" ] ~configs:[ "no-prefetcher" ]
      ~channels:[ "l1d" ] ~trials:2 ~seed:5 ~samples:40 ~max_retries:0 ()
  in
  with_dir (fun dir ->
      let digest ~jobs sub =
        with_store (Filename.concat dir sub) (fun store ->
            match E.run_job ~store ~jobs j with
            | Error e -> Alcotest.fail e
            | Ok r ->
                Alcotest.(check string) "job complete" "complete"
                  (P.status_name r.P.r_status);
                r.P.r_digest)
      in
      let par = digest ~jobs:2 "par" in
      Alcotest.(check string) "-j 2 digest = -j 1 digest" (digest ~jobs:1 "seq")
        par)

(* The memoised certificate fields are exactly what a direct
   certification of each path gives, for every platform x config. *)
let test_kcert_memo_matches_certify () =
  let module K = Tp_analysis.Kcert in
  List.iter
    (fun (plat : Tp_hw.Platform.t) ->
      List.iter
        (fun (cslug, kind) ->
          let c =
            {
              E.cl_platform = plat.Tp_hw.Platform.name;
              cl_plat = plat;
              cl_config = cslug;
              cl_kind = kind;
              cl_channel = "l1d";
              cl_trial = 0;
            }
          in
          let cfg = Tp_core.Scenario.config kind plat in
          let cert path = K.certify ~path plat ~config_name:cslug cfg in
          let switch = cert K.Switch in
          let what = plat.Tp_hw.Platform.name ^ "/" ^ cslug in
          (* Twice: the first lookup may certify, the second is a hit. *)
          List.iter
            (fun (kc : E.kcert_fields) ->
              Alcotest.(check int) (what ^ " bits") (K.total_bits switch)
                kc.E.kc_bits;
              Alcotest.(check string) (what ^ " switch digest")
                (K.digest switch) kc.E.kc_digest;
              Alcotest.(check string) (what ^ " clone digest")
                (K.digest (cert K.Clone)) kc.E.kc_clone_digest;
              Alcotest.(check string) (what ^ " destroy digest")
                (K.digest (cert K.Destroy)) kc.E.kc_destroy_digest)
            [ E.kcert_for c; E.kcert_for c ])
        E.config_slugs)
    Tp_hw.Platform.[ haswell; sabre; armv8 ]

(* Integer fields fail closed: a seed that is not an exact in-range
   integer is rejected with the field named, never rounded (2.5 -> 3)
   or wrapped (1e19 -> 0); jobs built by [P.job] still round-trip
   through the wire text. *)
let test_non_integral_seed_rejected () =
  let base = P.job_to_json (P.job ()) in
  let with_seed v =
    match base with
    | Tp_util.Json.Obj kvs ->
        Tp_util.Json.Obj
          (List.map (fun (k, x) -> if k = "seed" then (k, v) else (k, x)) kvs)
    | _ -> Alcotest.fail "job_to_json is not an object"
  in
  List.iter
    (fun (what, v) ->
      match P.job_of_json (with_seed (Tp_util.Json.Num v)) with
      | Ok j -> Alcotest.failf "seed %s accepted as %d" what j.P.j_seed
      | Error e ->
          Alcotest.(check bool)
            ("seed " ^ what ^ " rejected naming the field")
            true (contains_sub e "seed"))
    [ ("1e19", 1e19); ("2.5", 2.5); ("inf", Float.infinity) ];
  (match
     P.job_of_json
       (Tp_util.Json.parse
          {|{"id":"x","platforms":["haswell"],"configs":["protected"],"channels":["l1d"],"trials":1,"seed":1e999,"samples":10,"max_retries":0}|})
   with
  | Ok _ -> Alcotest.fail "overflowing wire seed accepted"
  | Error _ -> ());
  List.iter
    (fun j ->
      let wire = Tp_util.Json.parse (Tp_util.Json.to_string (P.job_to_json j)) in
      match P.job_of_json wire with
      | Ok j' ->
          Alcotest.(check bool) (j.P.j_id ^ " round-trips") true (j = j')
      | Error e -> Alcotest.fail (j.P.j_id ^ ": " ^ e))
    [
      P.job ~id:"defaults" ();
      job ();
      P.job ~id:"negative-seed" ~seed:(-3) ();
      P.job ~id:"wide-seed" ~seed:(1 lsl 40) ();
      P.job ~id:"budgets" ~trial_cycle_budget:2_000_000 ~trial_timeout_s:1.5
        ~wall_budget_s:30.0 ~max_retries:0 ~replay:false ();
    ]

let suite =
  [
    Alcotest.test_case "job wire round-trip" `Quick test_job_roundtrip;
    Alcotest.test_case "job validation" `Quick test_job_validation;
    Alcotest.test_case "stored blob round-trip" `Quick
      test_stored_blob_roundtrip;
    Alcotest.test_case "result wire round-trip" `Quick test_result_roundtrip;
    Alcotest.test_case "bad job rejected" `Quick test_bad_job_rejected;
    Alcotest.test_case "complete then cached" `Quick test_complete_then_cached;
    Alcotest.test_case "cell key independent of job shape" `Quick
      test_cell_key_independent_of_job_shape;
    Alcotest.test_case "retry recovers transient faults" `Quick
      test_retry_recovers_transient;
    Alcotest.test_case "retries exhausted fails the trial" `Quick
      test_retries_exhausted_fails_trial;
    Alcotest.test_case "circuit breaker opens" `Quick test_circuit_breaker;
    Alcotest.test_case "failing job's reply independent of -j" `Quick
      test_failing_reply_independent_of_jobs;
    Alcotest.test_case "wall budget degrades gracefully" `Quick
      test_wall_budget_degrades;
    Alcotest.test_case "crash-resume: dispatch faults" `Quick
      test_crash_resume_dispatch;
    Alcotest.test_case "crash-resume: store faults" `Quick
      test_crash_resume_store_faults;
    Alcotest.test_case "cycle budget cached, wall timeout not" `Slow
      test_cycle_budget_cached_wall_timeout_not;
    Alcotest.test_case "sabre kernel cell completes" `Quick
      test_arm_kernel_cell_completes;
    Alcotest.test_case "metrics on/off digests bit-identical" `Slow
      test_metrics_digest_identical;
    Alcotest.test_case "leakage-drift predicate" `Quick test_drift_predicate;
    Alcotest.test_case "drift counter increments" `Quick
      test_drift_counter_increments;
    Alcotest.test_case "top: exposition parse" `Quick test_top_parse;
    Alcotest.test_case "top: histogram quantiles" `Quick test_top_quantile;
    Alcotest.test_case "top: dashboard render" `Quick test_top_render;
    Alcotest.test_case "kcert memo: racing first lookup, -j 2 = -j 1" `Quick
      test_kcert_memo_race_par_eq_seq;
    Alcotest.test_case "kcert memo matches direct certify" `Quick
      test_kcert_memo_matches_certify;
    Alcotest.test_case "non-integral seed rejected" `Quick
      test_non_integral_seed_rejected;
  ]
