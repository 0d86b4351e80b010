(* Typed metric registry with Prometheus/OpenMetrics text exposition.

   One process-global registry guarded by a mutex: unlike the counter
   registry (domain-local, merged at pool joins), metric recording is
   low-rate — per trial, per job, per store commit — so worker domains
   simply take the lock.  Everything is gated on [enabled]: with
   metrics off (the default) every record call is one atomic load, no
   lock, no clock reads, so a metrics-off run is bit-identical to one
   that never linked this module.  Values are observational only —
   nothing in the simulator reads a metric back. *)

type kind = Counter | Gauge | Histogram_k

type cell =
  | Ccounter of int ref
  | Cgauge of float ref
  | Chist of Histogram.t

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  (* (canonical label key, labels, cell), insertion-ordered; rendering
     sorts by key so exposition is deterministic. *)
  mutable f_series : (string * (string * string) list * cell) list;
}

let registry : (string, family) Hashtbl.t = Hashtbl.create 32
let lock = Mutex.create ()
let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram_k -> "histogram"

let family kind ?(help = "") name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some f ->
          if f.f_kind <> kind then
            invalid_arg
              (Printf.sprintf
                 "Tp_obs.Metrics: %s already registered as a %s" name
                 (kind_name f.f_kind));
          f
      | None ->
          let f = { f_name = name; f_help = help; f_kind = kind; f_series = [] } in
          Hashtbl.replace registry name f;
          f)

let counter ?help name = family Counter ?help name
let gauge ?help name = family Gauge ?help name
let histogram ?help name = family Histogram_k ?help name

(* Label-value escaping per the text exposition format. *)
let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let label_block = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label v ^ "\"") labels)
      ^ "}"

let canonical labels =
  label_block (List.sort (fun (a, _) (b, _) -> compare a b) labels)

(* Callers hold the lock. *)
let cell_of f labels =
  let key = canonical labels in
  match
    List.find_opt (fun (k, _, _) -> k = key) f.f_series
  with
  | Some (_, _, c) -> c
  | None ->
      let c =
        match f.f_kind with
        | Counter -> Ccounter (ref 0)
        | Gauge -> Cgauge (ref 0.0)
        | Histogram_k -> Chist (Histogram.create ())
      in
      let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
      f.f_series <- f.f_series @ [ (key, labels, c) ];
      c

let wrong_kind f want =
  invalid_arg
    (Printf.sprintf "Tp_obs.Metrics: %s is a %s, not a %s" f.f_name
       (kind_name f.f_kind) want)

let inc ?(labels = []) ?(by = 1) f =
  if enabled () then
    with_lock (fun () ->
        match cell_of f labels with
        | Ccounter r -> r := !r + by
        | Cgauge _ | Chist _ -> wrong_kind f "counter")

let set ?(labels = []) f v =
  if enabled () then
    with_lock (fun () ->
        match cell_of f labels with
        | Cgauge r -> r := v
        | Ccounter _ | Chist _ -> wrong_kind f "gauge")

let observe ?(labels = []) f v =
  if enabled () then
    with_lock (fun () ->
        match cell_of f labels with
        | Chist h -> Histogram.record h v
        | Ccounter _ | Cgauge _ -> wrong_kind f "histogram")

(* ---- reading back (tests, the drift monitor) --------------------- *)

let find_cell f labels =
  let key = canonical labels in
  with_lock (fun () ->
      Option.map
        (fun (_, _, c) -> c)
        (List.find_opt (fun (k, _, _) -> k = key) f.f_series))

let value ?(labels = []) f =
  match find_cell f labels with
  | Some (Ccounter r) -> Some (float_of_int !r)
  | Some (Cgauge r) -> Some !r
  | Some (Chist _) | None -> None

let histogram_of ?(labels = []) f =
  match find_cell f labels with
  | Some (Chist h) -> Some h
  | Some _ | None -> None

let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ f -> f.f_series <- []) registry)

(* ---- exposition -------------------------------------------------- *)

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let escape_help h =
  let b = Buffer.create (String.length h) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    h;
  Buffer.contents b

let render_family b f =
  if f.f_help <> "" then
    Buffer.add_string b
      (Printf.sprintf "# HELP %s %s\n" f.f_name (escape_help f.f_help));
  Buffer.add_string b
    (Printf.sprintf "# TYPE %s %s\n" f.f_name (kind_name f.f_kind));
  let series =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) f.f_series
  in
  List.iter
    (fun (_, labels, cell) ->
      match cell with
      | Ccounter r ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" f.f_name (label_block labels) !r)
      | Cgauge r ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" f.f_name (label_block labels)
               (float_str !r))
      | Chist h ->
          let cum = ref 0 in
          List.iter
            (fun (ub, c) ->
              cum := !cum + c;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" f.f_name
                   (label_block (labels @ [ ("le", string_of_int ub) ]))
                   !cum))
            (Histogram.buckets h);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" f.f_name
               (label_block (labels @ [ ("le", "+Inf") ]))
               (Histogram.count h));
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %d\n" f.f_name (label_block labels)
               (Histogram.sum h));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" f.f_name (label_block labels)
               (Histogram.count h)))
    series

let render () =
  with_lock (fun () ->
      let fams =
        Hashtbl.fold (fun _ f acc -> f :: acc) registry []
        |> List.sort (fun a b -> compare a.f_name b.f_name)
      in
      let b = Buffer.create 4096 in
      List.iter (render_family b) fams;
      Buffer.add_string b "# EOF\n";
      Buffer.contents b)
