type arg = Int of int | Str of string | Bool of bool

type kind = Span | Instant

type event = {
  ts : int;
  dur : int;
  core : int;
  cat : string;
  name : string;
  args : (string * arg) list;
  kind : kind;
}

let default_capacity = 262_144

type ring = {
  buf : event option array;
  mutable head : int; (* next write position *)
  mutable count : int;
  mutable n_dropped : int;
  mutable last_ts : int;
}

(* The ring is domain-local: the [Ctl.trace] flag is shared (workers
   observe the value published at spawn), but each domain buffers into
   its own ring, so worker domains never race the main ring.  Worker
   events reach the main ring via {!with_capture}/{!replay} at join. *)
let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let ring () = Domain.DLS.get ring_key

let fresh_ring capacity =
  { buf = Array.make capacity None; head = 0; count = 0; n_dropped = 0;
    last_ts = 0 }

let start ?(capacity = default_capacity) () =
  assert (capacity > 0);
  ring () := Some (fresh_ring capacity);
  Ctl.set_trace true

let stop () = Ctl.set_trace false

let clear () =
  match !(ring ()) with
  | None -> ()
  | Some r ->
      Array.fill r.buf 0 (Array.length r.buf) None;
      r.head <- 0;
      r.count <- 0;
      r.n_dropped <- 0;
      r.last_ts <- 0

let enabled () = Ctl.trace_on ()

let push ev =
  match !(ring ()) with
  | None -> ()
  | Some r ->
      let cap = Array.length r.buf in
      if r.count = cap then r.n_dropped <- r.n_dropped + 1
      else r.count <- r.count + 1;
      r.buf.(r.head) <- Some ev;
      r.head <- (r.head + 1) mod cap;
      r.last_ts <- Stdlib.max r.last_ts (ev.ts + ev.dur)

let span ~core ~cat ~name ~ts ~dur ?(args = []) () =
  if enabled () then push { ts; dur; core; cat; name; args; kind = Span }

let instant ?ts ~core ~cat ~name ?(args = []) () =
  if enabled () then begin
    let ts =
      match ts with
      | Some t -> t
      | None -> ( match !(ring ()) with None -> 0 | Some r -> r.last_ts)
    in
    push { ts; dur = 0; core; cat; name; args; kind = Instant }
  end

let events () =
  match !(ring ()) with
  | None -> []
  | Some r ->
      let cap = Array.length r.buf in
      let first = (r.head - r.count + cap * 2) mod cap in
      List.init r.count (fun i ->
          match r.buf.((first + i) mod cap) with
          | Some e -> e
          | None -> assert false)

let recorded () = match !(ring ()) with None -> 0 | Some r -> r.count
let dropped () = match !(ring ()) with None -> 0 | Some r -> r.n_dropped

(* Per-task capture, the deterministic-merge half of the domain-local
   design: a pool task records into a private ring (same capacity
   semantics, last_ts starting at 0 regardless of jobs level), and the
   pool replays the captured events into the spawning domain's ring in
   trial order — so a traced [-j N] run buffers the same events as
   [-j 1]. *)
let with_capture ?(capacity = default_capacity) f =
  if not (enabled ()) then (f (), [])
  else begin
    let cell = ring () in
    let saved = !cell in
    cell := Some (fresh_ring capacity);
    Fun.protect
      ~finally:(fun () -> cell := saved)
      (fun () ->
        let v = f () in
        (v, events ()))
  end

let replay evs = List.iter push evs

(* ------------------------------------------------------------------ *)
(* JSON rendering: the trace-event schema is flat, so events print
   straight to strings. *)

module Json = Tp_util.Json

let arg_json = function
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "\"%s\"" (Json.escape s)
  | Bool b -> if b then "true" else "false"

let args_json args =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Json.escape k) (arg_json v)) args)

let event_json e =
  let common =
    Printf.sprintf "\"name\":\"%s\",\"cat\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%d"
      (Json.escape e.name) (Json.escape e.cat) e.core e.ts
  in
  let phase =
    match e.kind with
    | Span -> Printf.sprintf ",\"ph\":\"X\",\"dur\":%d" e.dur
    | Instant -> ",\"ph\":\"i\",\"s\":\"t\""
  in
  let args =
    if e.args = [] then "" else Printf.sprintf ",\"args\":{%s}" (args_json e.args)
  in
  "{" ^ common ^ phase ^ args ^ "}"

let export_chrome oc =
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let evs = events () in
  (* Name the rows: tid = simulated core. *)
  let cores = List.sort_uniq compare (List.map (fun e -> e.core) evs) in
  let meta =
    List.map
      (fun c ->
        Printf.sprintf
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\
           \"args\":{\"name\":\"core %d\"}}"
          c c)
      cores
  in
  let lines = meta @ List.map event_json evs in
  List.iteri
    (fun i l ->
      if i > 0 then output_string oc ",\n";
      output_string oc l)
    lines;
  output_string oc "\n]}\n"

let export_chrome_file path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export_chrome oc)

let export_metrics_jsonl oc =
  List.iter
    (fun set ->
      let fields =
        List.map
          (fun (n, v) -> Printf.sprintf "\"%s\":%d" (Json.escape n) v)
          (Counter.snapshot set)
      in
      Printf.fprintf oc "{\"set\":\"%s\",\"counters\":{%s}}\n"
        (Json.escape (Counter.set_name set))
        (String.concat "," fields))
    (Counter.registered ())

let export_metrics_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> export_metrics_jsonl oc)
