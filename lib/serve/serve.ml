module Json = Tp_util.Json
module Store = Tp_store.Store

(* Swallow a dead peer: the job (and its store commits) must outlive
   the client that asked for it. *)
let send fd line =
  match Protocol.write_line fd line with
  | () -> true
  | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> false

let event name fields = Json.to_string (Json.Obj (("event", Json.Str name) :: fields))

let error_line msg = event "error" [ ("message", Json.Str msg) ]

let elog event_log ~event:name fields =
  match event_log with
  | None -> ()
  | Some l -> Tp_obs.Eventlog.write l ~event:name fields

(* The drift alert carries everything a pager needs to reproduce. *)
let alert_fields (t : Protocol.trial) =
  [
    ("platform", Json.Str t.Protocol.t_platform);
    ("config", Json.Str t.Protocol.t_config);
    ("channel", Json.Str t.Protocol.t_channel);
    ("trial", Json.Num (float_of_int t.Protocol.t_trial));
    ("mi_bits", Json.Num t.Protocol.t_mi_bits);
    ("cert_bits", Json.Num (float_of_int t.Protocol.t_cert_bits));
    ("kcert_bits", Json.Num (float_of_int t.Protocol.t_kcert_bits));
    ("kcert_digest", Json.Str t.Protocol.t_kcert_digest);
    ("code_rev", Json.Str t.Protocol.t_code_rev);
    ("key", Json.Str t.Protocol.t_key);
  ]

(* One request line -> zero or more progress lines -> one final line.
   [true] keeps the daemon alive, [false] is a shutdown. *)
let handle ~store ~jobs ~log ?event_log fd line =
  match Json.parse_opt line with
  | None ->
      ignore (send fd (error_line "request is not valid JSON"));
      true
  | Some req -> (
      match Option.bind (Json.member "op" req) Json.str with
      | Some "ping" ->
          ignore (send fd (event "pong" []));
          true
      | Some "metrics" ->
          (* Point-in-time OpenMetrics snapshot over the same socket
             the jobs ride; any client can scrape it (tpsim top). *)
          ignore
            (send fd
               (event "metrics" [ ("text", Json.Str (Tp_obs.Metrics.render ())) ]));
          true
      | Some "status" ->
          ignore
            (send fd
               (event "status"
                  [
                    ("store_dir", Json.Str (Store.dir store));
                    ("entries", Json.Num (float_of_int (Store.count store)));
                    ("jobs", Json.Num (float_of_int jobs));
                    ("code_rev", Json.Str (Engine.code_rev ()));
                  ]));
          true
      | Some "shutdown" ->
          elog event_log ~event:"shutdown" [];
          ignore (send fd (event "bye" []));
          false
      | Some "submit" -> (
          match Json.member "job" req with
          | None ->
              ignore (send fd (error_line "submit carries no job"));
              true
          | Some jj -> (
              match Protocol.job_of_json jj with
              | Error why ->
                  ignore (send fd (error_line ("bad job: " ^ why)));
                  true
              | Ok job ->
                  log
                    (Printf.sprintf "job %s: %d platform(s) x %d config(s) x \
                                     %d channel(s) x %d trial(s)"
                       job.Protocol.j_id
                       (List.length job.Protocol.j_platforms)
                       (List.length job.Protocol.j_configs)
                       (List.length job.Protocol.j_channels)
                       job.Protocol.j_trials);
                  elog event_log ~event:"job_received"
                    [
                      ("id", Json.Str job.Protocol.j_id);
                      ("job", Protocol.job_to_json job);
                    ];
                  let progress p =
                    ignore
                      (send fd
                         (event "progress"
                            [ ("progress", Protocol.progress_to_json p) ]))
                  in
                  (match Engine.run_job ~store ~jobs ~progress job with
                  | Ok r ->
                      log
                        (Printf.sprintf
                           "job %s: %s (%d computed, %d cached, %d failed)"
                           r.Protocol.r_id
                           (Protocol.status_name r.Protocol.r_status)
                           r.Protocol.r_computed r.Protocol.r_cached
                           r.Protocol.r_failed);
                      List.iter
                        (fun t ->
                          if Engine.drifting t then begin
                            let kernel_bound =
                              List.mem t.Protocol.t_channel
                                Engine.switch_path_channels
                            in
                            log
                              (Printf.sprintf
                                 "ALERT job %s: %s %s %s#%d measured MI \
                                  %.4f b exceeds certified %s bound %d b"
                                 r.Protocol.r_id t.Protocol.t_platform
                                 t.Protocol.t_config t.Protocol.t_channel
                                 t.Protocol.t_trial t.Protocol.t_mi_bits
                                 (if kernel_bound then "kernel switch-path"
                                  else "guest")
                                 (if kernel_bound then t.Protocol.t_kcert_bits
                                  else t.Protocol.t_cert_bits));
                            elog event_log ~event:"mi_over_cert"
                              (("id", Json.Str r.Protocol.r_id)
                              :: alert_fields t)
                          end)
                        r.Protocol.r_trials;
                      let dropped = Tp_obs.Trace.dropped () in
                      if dropped > 0 then
                        elog event_log ~event:"spans_dropped"
                          [
                            ("id", Json.Str r.Protocol.r_id);
                            ("dropped", Json.Num (float_of_int dropped));
                          ];
                      elog event_log ~event:"job_done"
                        [
                          ("id", Json.Str r.Protocol.r_id);
                          ( "status",
                            Json.Str (Protocol.status_name r.Protocol.r_status)
                          );
                          ("total", Json.Num (float_of_int r.Protocol.r_total));
                          ( "computed",
                            Json.Num (float_of_int r.Protocol.r_computed) );
                          ( "cached",
                            Json.Num (float_of_int r.Protocol.r_cached) );
                          ( "failed",
                            Json.Num (float_of_int r.Protocol.r_failed) );
                          ("digest", Json.Str r.Protocol.r_digest);
                        ];
                      ignore
                        (send fd
                           (event "result"
                              [ ("result", Protocol.result_to_json r) ]))
                  | Error why ->
                      log (Printf.sprintf "job %s rejected: %s"
                             job.Protocol.j_id why);
                      elog event_log ~event:"job_rejected"
                        [
                          ("id", Json.Str job.Protocol.j_id);
                          ("reason", Json.Str why);
                        ];
                      ignore (send fd (error_line why)));
                  true))
      | Some op ->
          ignore (send fd (error_line ("unknown op " ^ op)));
          true
      | None ->
          ignore (send fd (error_line "request carries no op"));
          true)

let run ~socket ~store_dir ?jobs ?(log = ignore) ?event_log ?(metrics = true)
    () =
  let jobs =
    match jobs with
    | Some j -> Stdlib.max 1 j
    | None -> Tp_par.Pool.default_jobs ()
  in
  (* The daemon is the one place metrics default on: it owns the
     process, and the bit-identity contract is enforced regardless
     (test_serve runs the same jobs with metrics off and compares
     digests).  Enable before the store opens so fsck and journal
     replay are counted. *)
  if metrics then Tp_obs.Metrics.set_enabled true;
  (* A client that vanishes mid-stream must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let store = Store.open_ ~dir:store_dir in
  let r = Store.fsck_report store in
  log
    (Printf.sprintf
       "store %s: %d entries (fsck: %d torn, %d missing, %d corrupt, %d \
        orphans, %d staging)"
       store_dir r.Store.f_entries r.Store.f_torn r.Store.f_missing
       r.Store.f_corrupt r.Store.f_orphans r.Store.f_staging);
  elog event_log ~event:"daemon_start"
    [
      ("socket", Json.Str socket);
      ("store_dir", Json.Str store_dir);
      ("jobs", Json.Num (float_of_int jobs));
      ("entries", Json.Num (float_of_int r.Store.f_entries));
      ("code_rev", Json.Str (Engine.code_rev ()));
    ];
  if Sys.file_exists socket then Unix.unlink socket;
  let srv = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close srv with Unix.Unix_error _ -> ());
      (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
      Store.close store)
    (fun () ->
      Unix.bind srv (ADDR_UNIX socket);
      Unix.listen srv 8;
      log (Printf.sprintf "listening on %s (%d worker domains)" socket jobs);
      let alive = ref true in
      while !alive do
        let fd, _ = Unix.accept srv in
        let keep_going =
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              (* A peer that closes or resets leaves the daemon up;
                 only a handler that stops the loop (shutdown) ends
                 it. *)
              Protocol.read_lines fd (handle ~store ~jobs ~log ?event_log fd)
              <> `Stopped)
        in
        alive := keep_going
      done;
      log "shutdown requested, store closed")
