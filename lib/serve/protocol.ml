module Json = Tp_util.Json

type job = {
  j_id : string;
  j_platforms : string list;
  j_configs : string list;
  j_channels : string list;
  j_trials : int;
  j_seed : int;
  j_samples : int;
  j_trial_cycle_budget : int option;
  j_trial_timeout_s : float option;
  j_wall_budget_s : float option;
  j_max_retries : int;
  j_retry_backoff_s : float;
  j_replay : bool;
}

let job ?(id = "job") ?(platforms = [ "haswell" ]) ?(configs = [ "protected" ])
    ?(channels = [ "l1d" ]) ?(trials = 1) ?(seed = 1) ?(samples = 300)
    ?trial_cycle_budget ?trial_timeout_s ?wall_budget_s ?(max_retries = 2)
    ?(retry_backoff_s = 0.05) ?(replay = true) () =
  {
    j_id = id;
    j_platforms = platforms;
    j_configs = configs;
    j_channels = channels;
    j_trials = trials;
    j_seed = seed;
    j_samples = samples;
    j_trial_cycle_budget = trial_cycle_budget;
    j_trial_timeout_s = trial_timeout_s;
    j_wall_budget_s = wall_budget_s;
    j_max_retries = max_retries;
    j_retry_backoff_s = retry_backoff_s;
    j_replay = replay;
  }

type status = Complete | Degraded | Failed

let status_name = function
  | Complete -> "complete"
  | Degraded -> "degraded"
  | Failed -> "failed"

let status_of_name = function
  | "complete" -> Some Complete
  | "degraded" -> Some Degraded
  | "failed" -> Some Failed
  | _ -> None

type trial = {
  t_platform : string;
  t_config : string;
  t_channel : string;
  t_trial : int;
  t_key : string;
  t_status : status;
  t_mi_bits : float;
  t_m0_bits : float;
  t_verdict : string;
  t_n : int;
  t_cert_bits : int;
  t_kcert_bits : int;  (** certified kernel switch-path bound *)
  t_kcert_digest : string;  (** switch-path Kcert certificate digest *)
  t_kcert_clone_digest : string;  (** clone-path Kcert certificate digest *)
  t_kcert_destroy_digest : string;
      (** destroy-path Kcert certificate digest *)
  t_code_rev : string;  (** executable digest the trial ran under *)
  t_degraded_reason : string option;
  t_recovered_faults : int;
  t_checkpoints : int;
  t_retries : int;
  t_cached : bool;
}

type job_result = {
  r_id : string;
  r_status : status;
  r_reason : string option;
  r_total : int;
  r_computed : int;
  r_cached : int;
  r_degraded : int;
  r_failed : int;
  r_retried : int;
  r_digest : string;
  r_trials : trial list;
}

type progress = {
  p_done : int;
  p_total : int;
  p_cached : int;
  p_failed : int;
  p_retried : int;
  p_dropped_spans : int;
}

(* ---- helpers ----------------------------------------------------- *)

let opt_json of_v = function None -> Json.Null | Some v -> of_v v

let get_str j k =
  match Option.bind (Json.member k j) Json.str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" k)

let get_int j k =
  match Option.bind (Json.member k j) Json.int_ with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing or non-numeric field %S" k)

let get_num j k =
  match Option.bind (Json.member k j) Json.num with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing or non-numeric field %S" k)

let get_bool j k =
  match Option.bind (Json.member k j) Json.bool_ with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "missing or non-boolean field %S" k)

let get_str_list j k =
  match Option.bind (Json.member k j) Json.arr with
  | Some l -> (
      match List.filter_map Json.str l with
      | ss when List.length ss = List.length l -> Ok ss
      | _ -> Error (Printf.sprintf "field %S has non-string elements" k))
  | None -> Error (Printf.sprintf "missing or non-array field %S" k)

let opt_int j k = Option.bind (Json.member k j) Json.int_
let opt_num j k = Option.bind (Json.member k j) Json.num

let opt_str j k =
  match Json.member k j with
  | Some (Json.Str s) -> Some s
  | Some _ | None -> None

let ( let* ) = Result.bind

(* ---- job --------------------------------------------------------- *)

let job_to_json j =
  Json.Obj
    [
      ("id", Json.Str j.j_id);
      ("platforms", Json.Arr (List.map (fun s -> Json.Str s) j.j_platforms));
      ("configs", Json.Arr (List.map (fun s -> Json.Str s) j.j_configs));
      ("channels", Json.Arr (List.map (fun s -> Json.Str s) j.j_channels));
      ("trials", Json.Num (float_of_int j.j_trials));
      ("seed", Json.Num (float_of_int j.j_seed));
      ("samples", Json.Num (float_of_int j.j_samples));
      ( "trial_cycle_budget",
        opt_json (fun i -> Json.Num (float_of_int i)) j.j_trial_cycle_budget );
      ("trial_timeout_s", opt_json (fun f -> Json.Num f) j.j_trial_timeout_s);
      ("wall_budget_s", opt_json (fun f -> Json.Num f) j.j_wall_budget_s);
      ("max_retries", Json.Num (float_of_int j.j_max_retries));
      ("retry_backoff_s", Json.Num j.j_retry_backoff_s);
      ("replay", Json.Bool j.j_replay);
    ]

let job_of_json j =
  let* id = get_str j "id" in
  let* platforms = get_str_list j "platforms" in
  let* configs = get_str_list j "configs" in
  let* channels = get_str_list j "channels" in
  let* trials = get_int j "trials" in
  let* seed = get_int j "seed" in
  let* samples = get_int j "samples" in
  let* max_retries = get_int j "max_retries" in
  if trials < 1 then Error "trials must be >= 1"
  else if samples < 1 then Error "samples must be >= 1"
  else if max_retries < 0 then Error "max_retries must be >= 0"
  else
    Ok
      {
        j_id = id;
        j_platforms = platforms;
        j_configs = configs;
        j_channels = channels;
        j_trials = trials;
        j_seed = seed;
        j_samples = samples;
        j_trial_cycle_budget = opt_int j "trial_cycle_budget";
        j_trial_timeout_s = opt_num j "trial_timeout_s";
        j_wall_budget_s = opt_num j "wall_budget_s";
        j_max_retries = max_retries;
        j_retry_backoff_s =
          Option.value ~default:0.05 (opt_num j "retry_backoff_s");
        (* Absent in pre-replay clients' jobs: default on (replay is
           bit-identical, so the default is safe). *)
        j_replay =
          (match Option.bind (Json.member "replay" j) Json.bool_ with
          | Some b -> b
          | None -> true);
      }

(* ---- trial ------------------------------------------------------- *)

(* The stored blob carries only fields that are a pure function of the
   trial's cache key: no retries, no cache flag, no wall-clock times. *)
let stored_fields t =
  [
    ("schema", Json.Str "tpsim-trial/4");
    ("platform", Json.Str t.t_platform);
    ("config", Json.Str t.t_config);
    ("channel", Json.Str t.t_channel);
    ("trial", Json.Num (float_of_int t.t_trial));
    ("status", Json.Str (status_name t.t_status));
    ("mi_bits", Json.Num t.t_mi_bits);
    ("m0_bits", Json.Num t.t_m0_bits);
    ("verdict", Json.Str t.t_verdict);
    ("n", Json.Num (float_of_int t.t_n));
    ("cert_bits", Json.Num (float_of_int t.t_cert_bits));
    ("kcert_bits", Json.Num (float_of_int t.t_kcert_bits));
    ("kcert_digest", Json.Str t.t_kcert_digest);
    ("kcert_clone_digest", Json.Str t.t_kcert_clone_digest);
    ("kcert_destroy_digest", Json.Str t.t_kcert_destroy_digest);
    ("code_rev", Json.Str t.t_code_rev);
    ("degraded_reason", opt_json (fun s -> Json.Str s) t.t_degraded_reason);
    ("recovered_faults", Json.Num (float_of_int t.t_recovered_faults));
    ("checkpoints", Json.Num (float_of_int t.t_checkpoints));
  ]

let stored_of_trial t = Json.to_string (Json.Obj (stored_fields t))

let trial_of_fields ~key ~retries ~cached j =
  let* platform = get_str j "platform" in
  let* config = get_str j "config" in
  let* channel = get_str j "channel" in
  let* trial = get_int j "trial" in
  let* status_s = get_str j "status" in
  let* status =
    Option.to_result ~none:("unknown status " ^ status_s)
      (status_of_name status_s)
  in
  let* mi = get_num j "mi_bits" in
  let* m0 = get_num j "m0_bits" in
  let* verdict = get_str j "verdict" in
  let* n = get_int j "n" in
  let* cert_bits = get_int j "cert_bits" in
  let* kcert_bits = get_int j "kcert_bits" in
  let* kcert_digest = get_str j "kcert_digest" in
  let* kcert_clone_digest = get_str j "kcert_clone_digest" in
  let* kcert_destroy_digest = get_str j "kcert_destroy_digest" in
  let* code_rev = get_str j "code_rev" in
  let* recovered = get_int j "recovered_faults" in
  let* checkpoints = get_int j "checkpoints" in
  Ok
    {
      t_platform = platform;
      t_config = config;
      t_channel = channel;
      t_trial = trial;
      t_key = key;
      t_status = status;
      t_mi_bits = mi;
      t_m0_bits = m0;
      t_verdict = verdict;
      t_n = n;
      t_cert_bits = cert_bits;
      t_kcert_bits = kcert_bits;
      t_kcert_digest = kcert_digest;
      t_kcert_clone_digest = kcert_clone_digest;
      t_kcert_destroy_digest = kcert_destroy_digest;
      t_code_rev = code_rev;
      t_degraded_reason = opt_str j "degraded_reason";
      t_recovered_faults = recovered;
      t_checkpoints = checkpoints;
      t_retries = retries;
      t_cached = cached;
    }

let trial_of_stored ~key s =
  match Json.parse s with
  | j -> trial_of_fields ~key ~retries:0 ~cached:true j
  | exception Json.Bad msg -> Error ("bad stored trial: " ^ msg)

let trial_to_json t =
  Json.Obj
    (stored_fields t
    @ [
        ("key", Json.Str t.t_key);
        ("retries", Json.Num (float_of_int t.t_retries));
        ("cached", Json.Bool t.t_cached);
      ])

let trial_of_json j =
  let* key = get_str j "key" in
  let* retries = get_int j "retries" in
  let* cached = get_bool j "cached" in
  trial_of_fields ~key ~retries ~cached j

(* ---- job result -------------------------------------------------- *)

let result_to_json r =
  Json.Obj
    [
      ("id", Json.Str r.r_id);
      ("status", Json.Str (status_name r.r_status));
      ("reason", opt_json (fun s -> Json.Str s) r.r_reason);
      ("total", Json.Num (float_of_int r.r_total));
      ("computed", Json.Num (float_of_int r.r_computed));
      ("cached", Json.Num (float_of_int r.r_cached));
      ("degraded", Json.Num (float_of_int r.r_degraded));
      ("failed", Json.Num (float_of_int r.r_failed));
      ("retried", Json.Num (float_of_int r.r_retried));
      ("digest", Json.Str r.r_digest);
      ("trials", Json.Arr (List.map trial_to_json r.r_trials));
    ]

let result_of_json j =
  let* id = get_str j "id" in
  let* status_s = get_str j "status" in
  let* status =
    Option.to_result ~none:("unknown status " ^ status_s)
      (status_of_name status_s)
  in
  let* total = get_int j "total" in
  let* computed = get_int j "computed" in
  let* cached = get_int j "cached" in
  let* degraded = get_int j "degraded" in
  let* failed = get_int j "failed" in
  let* retried = get_int j "retried" in
  let* digest = get_str j "digest" in
  let* trials =
    match Option.bind (Json.member "trials" j) Json.arr with
    | None -> Error "missing trials array"
    | Some l ->
        List.fold_left
          (fun acc t ->
            let* acc = acc in
            let* t = trial_of_json t in
            Ok (t :: acc))
          (Ok []) l
        |> Result.map List.rev
  in
  Ok
    {
      r_id = id;
      r_status = status;
      r_reason = opt_str j "reason";
      r_total = total;
      r_computed = computed;
      r_cached = cached;
      r_degraded = degraded;
      r_failed = failed;
      r_retried = retried;
      r_digest = digest;
      r_trials = trials;
    }

(* ---- progress ---------------------------------------------------- *)

let progress_to_json p =
  Json.Obj
    [
      ("done", Json.Num (float_of_int p.p_done));
      ("total", Json.Num (float_of_int p.p_total));
      ("cached", Json.Num (float_of_int p.p_cached));
      ("failed", Json.Num (float_of_int p.p_failed));
      ("retried", Json.Num (float_of_int p.p_retried));
      ("dropped_spans", Json.Num (float_of_int p.p_dropped_spans));
    ]

let progress_of_json j =
  let* done_ = get_int j "done" in
  let* total = get_int j "total" in
  let* cached = get_int j "cached" in
  let* failed = get_int j "failed" in
  let* retried = get_int j "retried" in
  Ok
    {
      p_done = done_;
      p_total = total;
      p_cached = cached;
      p_failed = failed;
      p_retried = retried;
      p_dropped_spans = Option.value ~default:0 (opt_int j "dropped_spans");
    }

(* ---- request lines ----------------------------------------------- *)

let submit_line j =
  Json.to_string (Json.Obj [ ("op", Json.Str "submit"); ("job", job_to_json j) ])

let ping_line = Json.to_string (Json.Obj [ ("op", Json.Str "ping") ])
let metrics_line = Json.to_string (Json.Obj [ ("op", Json.Str "metrics") ])
let status_line = Json.to_string (Json.Obj [ ("op", Json.Str "status") ])
let shutdown_line = Json.to_string (Json.Obj [ ("op", Json.Str "shutdown") ])

let write_line fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let rec loop off =
    if off < Bytes.length data then
      loop (off + Unix.write fd data off (Bytes.length data - off))
  in
  loop 0

let read_lines fd f =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Closed
    | n ->
        let continue = ref true in
        for i = 0 to n - 1 do
          let c = Bytes.get chunk i in
          if c = '\n' then begin
            let line = Buffer.contents buf in
            Buffer.clear buf;
            if !continue && String.trim line <> "" then continue := f line
          end
          else Buffer.add_char buf c
        done;
        if !continue then loop () else `Stopped
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> `Reset
  in
  loop ()
