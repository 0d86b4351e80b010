(* The metrics the ledger emits, and the check that BENCHMARK.json
   declares exactly them, within the limits of its format.  Which
   end-to-end metrics each per-layer metric should move is a table in
   README.md. *)

module Json = Tp_util.Json

type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better }

let m ?(better = Lower) name unit_ = { name; unit_; better }

let end_to_end =
  [
    m "trials_per_s" "1/s" ~better:Higher;
    m "trial_p50_s" "s";
    m "trial_p90_s" "s";
    m "resubmit_mean_ms" "ms";
    m "resubmit_p99_ms" "ms";
    m "setup_s" "s";
    m "max_rss_mib" "MiB";
  ]

(* Per-trial and per-cell timings, each reported as a median and as a
   [.p90] companion. *)
let timed =
  [
    m "serve.compute_ms" "ms";
    m "kernel.boot_ms" "ms";
    m "attacks.prepare_ms" "ms";
    m "attacks.collect_ms" "ms";
    m "channel.leakage_ms" "ms";
    m "analysis.kcert_ms" "ms";
    m "analysis.static_ms" "ms";
    m "serve.unattributed_ms" "ms";
    m "store.put_ms" "ms";
    m "store.find_us" "us";
    m "serve.key_us" "us";
    m "serve.parse_us" "us";
    m "serve.encode_ms" "ms";
    m "attacks.record_ms" "ms";
  ]

let counted =
  [
    m "kernel.switches" "count";
    m "hw.accesses" "count";
    m "hw.sim_cycles" "cycles";
    m "hw.ns_per_access" "ns";
    m "attacks.replayable_frac" "ratio" ~better:Higher;
    m "par.util" "ratio" ~better:Higher;
    m "par.inflation" "ratio";
  ]

(* Bechamel per-call estimates of single layers ({!Micro}). *)
let micro =
  [
    m "kernel.switch_us" "us";
    m "kernel.boot_op_ms" "ms";
    m "channel.leakage_op_ms" "ms";
    m "analysis.kcert_op_ms" "ms";
    m "store.put_op_ms" "ms";
    m "store.find_op_us" "us";
  ]

let per_layer =
  List.concat_map (fun t -> [ t; { t with name = t.name ^ ".p90" } ]) timed
  @ counted @ micro

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)

(* ---- BENCHMARK.json ----------------------------------------------- *)

let better_name = function Lower -> "lower" | Higher -> "higher"

let only_chars extra s =
  String.for_all
    (fun c ->
      (c >= 'a' && c <= 'z')
      || (c >= 'A' && c <= 'Z')
      || (c >= '0' && c <= '9')
      || String.contains extra c)
    s

let valid_name s =
  s <> ""
  && String.length s <= 64
  && only_chars "_.-" s
  && not (String.contains "_.-" s.[0])

let valid_unit s = s <> "" && String.length s <= 16 && only_chars "_/%.-" s

let valid_path s =
  s <> ""
  && String.length s <= 200
  && only_chars "_.-/" s
  && s.[0] <> '/'
  && not (List.mem ".." (String.split_on_char '/' s))

let same_keys o want =
  match o with
  | Json.Obj kv -> List.sort compare (List.map fst kv) = List.sort compare want
  | _ -> false

(* Every problem found in [doc], a parsed BENCHMARK.json; [] is valid. *)
let check_benchmark ~workloads doc =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let list k = Option.value (Option.bind (Json.member k doc) Json.arr) ~default:[] in
  let str o k = Option.value (Option.bind (Json.member k o) Json.str) ~default:"" in
  if
    not
      (same_keys doc
         [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ])
  then
    err "top-level keys must be exactly command, paths, run_seconds, \
         workloads, end_to_end and per_layer";
  let strings k = List.filter_map Json.str (list k) in
  let command = strings "command" and paths = strings "paths" in
  if command = [] || List.length command > 32 then err "command: 1 to 32 strings";
  List.iter
    (fun a ->
      if String.length a > 200 || (a <> "" && a.[0] = '/') then
        err "command: bad argument %S" a)
    command;
  if paths = [] || List.length paths > 16 then err "paths: 1 to 16 directories";
  List.iter (fun p -> if not (valid_path p) then err "paths: bad path %S" p) paths;
  (match Option.bind (Json.member "run_seconds" doc) Json.num with
  | Some s when Float.is_integer s && s >= 1. && s <= 60. -> ()
  | _ -> err "run_seconds must be a whole number from 1 to 60");
  let entries k ~lo ~hi keys =
    let l = list k in
    if List.length l < lo || List.length l > hi then
      err "%s: %d entries, want %d to %d" k (List.length l) lo hi;
    List.filter
      (fun o ->
        same_keys o keys
        || (err "%s: entry keys must be exactly %s" k (String.concat ", " keys);
            false))
      l
  in
  let ws = entries "workloads" ~lo:2 ~hi:8 [ "name"; "why" ] in
  let e2e = entries "end_to_end" ~lo:1 ~hi:16 [ "name"; "unit"; "better"; "bound" ] in
  let layer = entries "per_layer" ~lo:1 ~hi:128 [ "name"; "unit"; "better" ] in
  let names os = List.map (fun o -> str o "name") os in
  let all = names ws @ names e2e @ names layer in
  List.iter (fun n -> if not (valid_name n) then err "bad name %S" n) all;
  List.iter
    (fun n ->
      if List.length (List.filter (( = ) n) all) > 1 then
        err "name %S used more than once" n)
    (List.sort_uniq compare all);
  List.iter
    (fun o ->
      let why = str o "why" in
      if why = "" || String.length why > 200 || String.contains why '\n' then
        err "workload %s: why must be one line of 1 to 200 characters"
          (str o "name"))
    ws;
  List.iter
    (fun o -> if not (valid_unit (str o "unit")) then err "%s: bad unit" (str o "name"))
    (e2e @ layer);
  List.iter
    (fun o ->
      match Option.bind (Json.member "bound" o) Json.num with
      | Some b when b > 0. && b <= 0.25 -> ()
      | _ -> err "%s: bound must be in (0, 0.25]" (str o "name"))
    e2e;
  (match List.find_opt (fun o -> str o "name" = "setup_s") e2e with
  | Some o when str o "unit" = "s" && str o "better" = "lower" -> ()
  | _ -> err "end_to_end must declare setup_s in s, lower is better");
  (* The declarations must be exactly what the ledger emits. *)
  let same what declared emitted =
    let theirs =
      List.map
        (fun o -> Printf.sprintf "%s [%s, %s]" (str o "name") (str o "unit") (str o "better"))
        declared
    and mine =
      List.map
        (fun x -> Printf.sprintf "%s [%s, %s]" x.name x.unit_ (better_name x.better))
        emitted
    in
    List.iter
      (fun s -> if not (List.mem s theirs) then err "%s: %s emitted, not declared" what s)
      mine;
    List.iter
      (fun s -> if not (List.mem s mine) then err "%s: %s declared, not emitted" what s)
      theirs
  in
  same "end_to_end" e2e end_to_end;
  same "per_layer" layer per_layer;
  if List.sort compare (names ws) <> List.sort compare workloads then
    err "workloads: declared %s, the ledger runs %s"
      (String.concat "," (names ws))
      (String.concat "," workloads);
  List.rev !errs

(* Golden result digests: {"digests": {seed: {workload: md5-hex}}}. *)
let check_goldens ~workloads doc =
  let is_hex s =
    String.length s = 32
    && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) s
  in
  List.concat_map
    (fun seed ->
      List.filter_map
        (fun w ->
          match
            Option.bind (Json.member "digests" doc) (fun d ->
                Option.bind (Json.member seed d) (fun per ->
                    Option.bind (Json.member w per) Json.str))
          with
          | Some d when is_hex d -> None
          | _ -> Some (Printf.sprintf "no digest for %s at seed %s" w seed))
        workloads)
    [ "1"; "2" ]

let golden doc ~seed ~workload =
  Option.bind (Json.member "digests" doc) (fun d ->
      Option.bind (Json.member (string_of_int seed) d) (fun per ->
          Option.bind (Json.member workload per) Json.str))
