(* The [tpsim top] dashboard: scrape the daemon's OpenMetrics snapshot
   over the job socket, parse the text exposition back into samples,
   and render a one-screen live view — throughput, latency percentile
   table, store hit rate, per-domain pool utilisation, and the
   leakage-drift monitor.

   The parser handles exactly what [Tp_obs.Metrics.render] emits (the
   Prometheus text format subset): [# TYPE]/[# HELP] comments, sample
   lines with an optional [{k="v",...}] label block, [# EOF].  It lives
   here rather than in the binary so the render pipeline is unit-
   testable against a synthetic exposition. *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

type exposition = {
  e_types : (string * string) list; (* family name -> kind *)
  e_samples : sample list;
}

let empty = { e_types = []; e_samples = [] }

(* ---- parsing ----------------------------------------------------- *)

let parse_labels s =
  (* [s] is the inside of one { } block: comma-separated key=value
     pairs, values double-quoted with backslash escapes. *)
  let n = String.length s in
  let labels = ref [] in
  let i = ref 0 in
  let ok = ref true in
  while !ok && !i < n do
    while !i < n && (s.[!i] = ',' || s.[!i] = ' ') do incr i done;
    if !i < n then begin
      let k0 = !i in
      while !i < n && s.[!i] <> '=' do incr i done;
      if !i >= n || !i + 1 >= n || s.[!i + 1] <> '"' then ok := false
      else begin
        let key = String.sub s k0 (!i - k0) in
        i := !i + 2;
        let b = Buffer.create 16 in
        let closed = ref false in
        while (not !closed) && !i < n do
          (match s.[!i] with
          | '\\' when !i + 1 < n ->
              incr i;
              Buffer.add_char b
                (match s.[!i] with 'n' -> '\n' | c -> c)
          | '"' -> closed := true
          | c -> Buffer.add_char b c);
          incr i
        done;
        if !closed then labels := (key, Buffer.contents b) :: !labels
        else ok := false
      end
    end
  done;
  if !ok then Some (List.rev !labels) else None

let parse_sample line =
  let name_end =
    match (String.index_opt line '{', String.index_opt line ' ') with
    | Some b, Some sp when b < sp -> b
    | _, Some sp -> sp
    | _ -> String.length line
  in
  if name_end = 0 || name_end >= String.length line then None
  else
    let name = String.sub line 0 name_end in
    let labels, rest =
      if line.[name_end] = '{' then
        match String.index_from_opt line name_end '}' with
        | None -> (None, "")
        | Some e ->
            ( parse_labels (String.sub line (name_end + 1) (e - name_end - 1)),
              String.sub line (e + 1) (String.length line - e - 1) )
      else
        ( Some [],
          String.sub line name_end (String.length line - name_end) )
    in
    match labels with
    | None -> None
    | Some labels -> (
        match float_of_string_opt (String.trim rest) with
        | Some v -> Some { s_name = name; s_labels = labels; s_value = v }
        | None -> None)

let parse text =
  let types = ref [] and samples = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         if line = "" then ()
         else if String.length line > 0 && line.[0] = '#' then begin
           match String.split_on_char ' ' line with
           | "#" :: "TYPE" :: name :: kind :: _ ->
               types := (name, kind) :: !types
           | _ -> ()
         end
         else
           match parse_sample line with
           | Some s -> samples := s :: !samples
           | None -> ());
  { e_types = List.rev !types; e_samples = List.rev !samples }

(* ---- queries ----------------------------------------------------- *)

let label s k = List.assoc_opt k s.s_labels

let value ?labels e name =
  List.find_opt
    (fun s ->
      s.s_name = name
      &&
      match labels with
      | None -> true
      | Some want ->
          List.for_all (fun (k, v) -> label s k = Some v) want)
    e.e_samples
  |> Option.map (fun s -> s.s_value)

(* Sum over every label set of one sample name. *)
let total e name =
  List.fold_left
    (fun acc s -> if s.s_name = name then acc +. s.s_value else acc)
    0.0 e.e_samples

(* All (label value, sample value) pairs of one name keyed by one
   label, in exposition order. *)
let by_label e name key =
  List.filter_map
    (fun s ->
      if s.s_name = name then
        Option.map (fun v -> (v, s.s_value)) (label s key)
      else None)
    e.e_samples

(* Quantile of an unlabelled histogram family from its cumulative
   _bucket series: the smallest [le] whose cumulative count covers the
   nearest-rank position. *)
let quantile e name p =
  let buckets =
    List.filter_map
      (fun s ->
        if s.s_name = name ^ "_bucket" then
          match label s "le" with
          | Some "+Inf" -> None
          | Some le ->
              Option.map (fun u -> (u, s.s_value)) (float_of_string_opt le)
          | None -> None
        else None)
      e.e_samples
  in
  let count = total e (name ^ "_count") in
  if count <= 0.0 then None
  else begin
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank = Float.max 1.0 (Float.ceil (p /. 100.0 *. count)) in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) buckets in
    let rec pick = function
      | [] -> None
      | [ (u, _) ] -> Some u
      | (u, cum) :: rest -> if cum >= rank then Some u else pick rest
    in
    pick sorted
  end

(* ---- rendering --------------------------------------------------- *)

let fmt_f v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.1f" v

let fmt_opt = function None -> "-" | Some v -> fmt_f v

let pct num den = if den <= 0.0 then 0.0 else 100.0 *. num /. den

let render ?prev ~now e =
  ignore now;
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  (* Throughput from the counter delta between two scrapes. *)
  let trials_now = total e "tpsim_engine_trials_total" in
  (match prev with
  | Some (p, dt) when dt > 0.0 ->
      let d = trials_now -. total p "tpsim_engine_trials_total" in
      line "throughput  %.1f trials/s (%.0f in %.1fs)" (d /. dt) d dt
  | _ -> line "throughput  - (first scrape)");
  let outcome o =
    Option.value ~default:0.0
      (value ~labels:[ ("outcome", o) ] e "tpsim_engine_trials_total")
  in
  line "trials      %s total: %s complete, %s cached, %s degraded, %s failed"
    (fmt_f trials_now)
    (fmt_f (outcome "complete"))
    (fmt_f (outcome "cached"))
    (fmt_f (outcome "degraded"))
    (fmt_f (outcome "failed"));
  let jobs_by = by_label e "tpsim_engine_jobs_total" "status" in
  if jobs_by <> [] then
    line "jobs        %s"
      (String.concat ", "
         (List.map (fun (st, v) -> Printf.sprintf "%s %s" (fmt_f v) st) jobs_by));
  let circuit =
    match value e "tpsim_engine_circuit_open" with
    | Some v when v > 0.0 -> "OPEN"
    | _ -> "closed"
  in
  let retries = total e "tpsim_engine_retries_total" in
  line "circuit     %s   retries %s" circuit (fmt_f retries);
  line "";
  line "latency (us)  %10s %10s %10s %10s %10s" "p50" "p90" "p99" "max" "count";
  List.iter
    (fun (label_, fam) ->
      let q p = fmt_opt (quantile e fam p) in
      line "  %-11s %10s %10s %10s %10s %10s" label_ (q 50.0) (q 90.0)
        (q 99.0) (q 100.0)
        (fmt_f (total e (fam ^ "_count"))))
    [
      ("trial", "tpsim_engine_trial_us");
      ("job", "tpsim_engine_job_us");
    ];
  line "";
  let hits = total e "tpsim_store_hits_total"
  and misses = total e "tpsim_store_misses_total" in
  line "store       %s hits / %s misses (%.1f%% hit)   entries %s   puts %s   fsyncs %s"
    (fmt_f hits) (fmt_f misses)
    (pct hits (hits +. misses))
    (fmt_opt (value e "tpsim_store_entries"))
    (fmt_f (total e "tpsim_store_puts_total"))
    (fmt_f (total e "tpsim_store_fsyncs_total"));
  line "";
  line "pool        %s runs, %s tasks, %s steals"
    (fmt_f (total e "tpsim_pool_runs_total"))
    (fmt_f (total e "tpsim_pool_tasks_total"))
    (fmt_f (total e "tpsim_pool_steals_total"));
  let domains =
    List.sort_uniq compare
      (List.map fst (by_label e "tpsim_pool_tasks_total" "domain"))
  in
  List.iter
    (fun d ->
      let labels = [ ("domain", d) ] in
      let busy =
        Option.value ~default:0.0 (value ~labels e "tpsim_pool_busy_us_total")
      and idle =
        Option.value ~default:0.0 (value ~labels e "tpsim_pool_idle_us_total")
      and tasks =
        Option.value ~default:0.0 (value ~labels e "tpsim_pool_tasks_total")
      in
      line "  domain %-4s %5.1f%% busy  (%s tasks)" d
        (pct busy (busy +. idle))
        (fmt_f tasks))
    domains;
  line "";
  let drift = by_label e "tpsim_engine_mi_over_cert_total" "channel" in
  let drift_total = total e "tpsim_engine_mi_over_cert_total" in
  if drift_total > 0.0 then
    line "leakage     ALERT: %s trial(s) measured MI over certified bound (%s)"
      (fmt_f drift_total)
      (String.concat ", "
         (List.map (fun (c, v) -> Printf.sprintf "%s: %s" c (fmt_f v)) drift))
  else line "leakage     ok: no trial over its certified bound";
  Buffer.contents b

(* ---- refresh loop ------------------------------------------------ *)

let run ~socket ?(interval = 2.0) ?frames ?(raw = false) () =
  let clear = frames <> Some 1 && not raw in
  let rec loop n prev =
    match Client.metrics ~socket with
    | Error _ as e -> e
    | Ok text ->
        let now = Unix.gettimeofday () in
        if raw then print_string text
        else begin
          let e = parse text in
          if clear then print_string "\027[2J\027[H";
          print_string
            (Printf.sprintf "tpsim top — %s — scrape %d\n\n" socket (n + 1));
          print_string
            (render
               ?prev:(Option.map (fun (p, t) -> (p, now -. t)) prev)
               ~now e)
        end;
        flush stdout;
        let continue = match frames with Some k -> n + 1 < k | None -> true in
        if not continue then Ok ()
        else begin
          Unix.sleepf interval;
          let prev = if raw then None else Some (parse text, now) in
          loop (n + 1) prev
        end
  in
  loop 0 None
