(* Process-level campaign-daemon lifecycle, driven against the built
   `tpsim` executable (its path is the first argument; dune passes
   it).  One run: an in-process reference job, then a daemon started
   with --event-log that is SIGKILLed at its first progress report,
   restarted into the same store, asked for the job again and then
   for a fully cached resubmission, scraped for metrics, and shut
   down.  The test cases below assert on what that run recorded; one
   more checks a usage error. *)

module P = Tp_serve.Protocol
module E = Tp_serve.Engine
module Client = Tp_serve.Client

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let job =
  P.job ~id:"daemon" ~platforms:[ "haswell" ] ~configs:[ "protected" ]
    ~channels:[ "l1d"; "kernel" ] ~trials:2 ~samples:150 ()

type lifecycle = {
  reference : string;  (** in-process digest of an uninterrupted run *)
  killed : bool;  (** SIGKILL landed while the job was still running *)
  first : (P.job_result, string) result;  (** the killed daemon's answer *)
  resumed : (P.job_result, string) result;
  resubmit : (P.job_result * float, string) result;  (** with wall seconds *)
  metrics : (string, string) result;
  shutdown : (unit, string) result;
  events : string list;  (** raw event-log lines, in order *)
}

(* The trial blob records the code revision, which is the digest of
   the running executable; the reference run stamps the daemon's
   revision so both digests cover the same bytes. *)
let reference_digest ~exe ~dir =
  let rev = Digest.to_hex (Digest.file exe) in
  let compute j c =
    Result.bind (E.compute_cell j c) (fun blob ->
        Result.map
          (fun t ->
            P.stored_of_trial
              { t with P.t_code_rev = rev; t_key = ""; t_cached = false })
          (P.trial_of_stored ~key:"" blob))
  in
  let st = Tp_store.Store.open_ ~dir in
  Fun.protect
    ~finally:(fun () -> Tp_store.Store.close st)
    (fun () ->
      match E.run_job ~store:st ~code_rev:rev ~jobs:1 ~compute job with
      | Ok r -> r.P.r_digest
      | Error e -> failwith ("reference run rejected: " ^ e))

let run_lifecycle exe =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpsim-daemon-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "sock" in
  let elog = Filename.concat dir "events.jsonl" in
  let live = ref [] in
  let spawn () =
    let pid =
      Unix.create_process exe
        [|
          exe; "serve"; "--socket"; socket; "--store";
          Filename.concat dir "store"; "-j"; "1"; "--event-log"; elog;
        |]
        Unix.stdin Unix.stderr Unix.stderr
    in
    live := pid :: !live;
    (match Client.ping ~socket with
    | Ok () -> ()
    | Error e -> failwith ("daemon never came up: " ^ e));
    pid
  in
  let reap pid =
    ignore (Unix.waitpid [] pid);
    live := List.filter (( <> ) pid) !live
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !live;
      rm_rf dir)
    (fun () ->
      let reference = reference_digest ~exe ~dir:(Filename.concat dir "ref") in
      let pid1 = spawn () in
      let killed = ref false in
      let first =
        Client.submit ~socket
          ~on_progress:(fun pr ->
            if (not !killed) && pr.P.p_done < pr.P.p_total then begin
              killed := true;
              Unix.kill pid1 Sys.sigkill
            end)
          job
      in
      reap pid1;
      let pid2 = spawn () in
      let resumed = Client.submit ~socket job in
      let t0 = Unix.gettimeofday () in
      let resubmit =
        Result.map
          (fun r -> (r, Unix.gettimeofday () -. t0))
          (Client.submit ~socket job)
      in
      let metrics = Client.metrics ~socket in
      let shutdown = Client.shutdown ~socket in
      reap pid2;
      let events =
        try In_channel.with_open_bin elog In_channel.input_lines
        with Sys_error _ -> []
      in
      {
        reference;
        killed = !killed;
        first;
        resumed;
        resubmit;
        metrics;
        shutdown;
        events;
      })

let get = function Ok v -> v | Error e -> Alcotest.fail e

let test_kill_and_resume l () =
  Alcotest.(check bool)
    "daemon SIGKILLed mid-sweep" true
    (l.killed && Result.is_error l.first);
  let r = get l.resumed in
  Alcotest.(check string)
    "resumed job completes" "complete"
    (P.status_name r.P.r_status);
  Alcotest.(check string)
    "resume digest = uninterrupted in-process run" l.reference r.P.r_digest;
  Alcotest.(check bool)
    (Printf.sprintf "pre-crash trials answered from cache (%d)" r.P.r_cached)
    true (r.P.r_cached >= 2);
  Alcotest.(check int) "no failed trials" 0 r.P.r_failed

let test_cached_resubmission l () =
  let r, dt = get l.resubmit in
  Alcotest.(check int) "every trial cached" r.P.r_total r.P.r_cached;
  Alcotest.(check int) "nothing recomputed" 0 r.P.r_computed;
  Alcotest.(check string) "digest stable" l.reference r.P.r_digest;
  Alcotest.(check bool)
    (Printf.sprintf "cache-hit latency under 1 s (%.3f s)" dt)
    true (dt < 1.0)

let test_metrics_scrape l () =
  let text = get l.metrics in
  List.iter
    (fun (what, family) ->
      Alcotest.(check bool) ("exposition carries " ^ what) true
        (contains text family))
    [
      ("engine latency histogram", "tpsim_engine_trial_us_bucket");
      ("engine trial counters", "tpsim_engine_trials_total");
      ("store hits", "tpsim_store_hits_total");
      ("store misses", "tpsim_store_misses_total");
      ("pool tasks", "tpsim_pool_tasks_total");
      ("pool busy time", "tpsim_pool_busy_us_total");
      ("drift counter type", "# TYPE tpsim_engine_mi_over_cert_total");
      ("OpenMetrics terminator", "# EOF");
    ];
  let e = Tp_serve.Top.parse text in
  Alcotest.(check bool) "exposition parses into samples" true
    (e.Tp_serve.Top.e_samples <> []);
  Alcotest.(check bool) "engine recorded the sweep's trials" true
    (Tp_serve.Top.total e "tpsim_engine_trials_total" >= 2.0);
  let frame = Tp_serve.Top.render ~now:(Unix.gettimeofday ()) e in
  List.iter
    (fun section ->
      Alcotest.(check bool) ("dashboard renders " ^ section) true
        (contains frame section))
    [ "latency"; "store"; "pool"; "leakage" ]

let test_event_log l () =
  get l.shutdown;
  Alcotest.(check bool) "event log written" true (l.events <> []);
  let names =
    List.map
      (fun line ->
        match
          Option.bind (Tp_util.Json.parse_opt line) (fun j ->
              Option.bind (Tp_util.Json.member "event" j) Tp_util.Json.str)
        with
        | Some ev -> ev
        | None -> Alcotest.failf "event-log line without an event: %S" line)
      l.events
  in
  List.iter
    (fun ev ->
      Alcotest.(check bool) ("event log records " ^ ev) true
        (List.mem ev names))
    [ "daemon_start"; "job_received"; "job_done"; "shutdown" ]

(* Explicit parallelism combined with fault injection is a usage error
   (Cmdliner's exit 124), never silently downgraded to -j 1. *)
let test_jobs_with_inject_rejected exe () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "table2"; "-j"; "4"; "--inject"; "clone.copy" |]
      null null null
  in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> Alcotest.(check int) "exit code" 124 code
  | _ -> Alcotest.fail "tpsim killed by a signal"

let () =
  match Array.to_list Sys.argv with
  | argv0 :: exe :: rest ->
      let l = lazy (run_lifecycle exe) in
      let case name f =
        Alcotest.test_case name `Quick (fun () -> f (Lazy.force l) ())
      in
      Alcotest.run ~argv:(Array.of_list (argv0 :: rest)) "tpsim-daemon"
        [
          ( "daemon",
            [
              case "SIGKILL mid-sweep, restart resumes bit-identically"
                test_kill_and_resume;
              case "fully cached resubmission under 1 s"
                test_cached_resubmission;
              case "metrics scrape carries every family and renders"
                test_metrics_scrape;
              case "event log records the job lifecycle" test_event_log;
              Alcotest.test_case "-j 4 with --inject is a usage error" `Quick
                (test_jobs_with_inject_rejected exe);
            ] );
        ]
  | _ ->
      prerr_endline "usage: test_daemon.exe PATH-TO-TPSIM [ALCOTEST-ARGS]";
      exit 2
