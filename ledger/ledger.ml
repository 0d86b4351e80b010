(* tpsim's campaign ledger: the benchmark's command line.  See README.md.

     ledger.exe --workload W --seed N --seconds S --trace 0|1 [--jobs J]
         one workload in this process; the last line of stdout is the
         result object a benchmark runner reads
     ledger.exe run [--seeds 1,2,..] [--repeat K] [--with-trace] [--out FILE]
         K passes over every seed and workload, each run in a child
         process; per pass, medians and spreads over the seeds, and how
         far later passes' medians moved from the first's
     ledger.exe trace [--seed N] [--out FILE]
         every workload's per-layer breakdown
     ledger.exe check [--benchmark FILE] [--goldens FILE]
         validate BENCHMARK.json and the golden digests
     ledger.exe goldens [--seeds 1,2] [--goldens FILE]
         recompute the golden result digests *)

open Tp_ledger
module Json = Tp_util.Json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ledger: " ^ s);
      exit 2)
    fmt

let read_json path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | doc -> doc
  | exception (Sys_error e | Json.Bad e) -> die "cannot read %s: %s" path e

let write_json path doc =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string doc ^ "\n"))

let names = List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all

(* A reported value with the distribution behind it. *)
type value = { v : float; n : int; q1 : float; q3 : float }

let of_dist ?(scale = 1.) pick (d : Dist.t) =
  {
    v = pick d *. scale;
    n = d.Dist.n;
    q1 = d.Dist.q1 *. scale;
    q3 = d.Dist.q3 *. scale;
  }

let median_of xs = of_dist (fun d -> d.Dist.median) (Dist.summarize xs)
let single v = { v; n = 1; q1 = v; q3 = v }

let unit_of name =
  match Spec.find name with Some m -> m.Spec.unit_ | None -> "?"

(* ---- one workload, one process ------------------------------------ *)

(* Set-up is also timed in fresh processes: the engine memoises the
   victim streams per process, so only a new one pays set-up again. *)
let setup_probe ~workload ~seed =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [|
        exe; "setup-probe"; "--workload"; workload; "--seed";
        string_of_int seed;
      |]
  in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> die "set-up probe for %s failed: %s" workload out

(* Set-ups per run, this process's own included: [setup_s] is their
   median. *)
let setup_runs = 5

let end_to_end (w : Workload.t) s ~seed ~seconds ~jobs ~dir =
  let own = Host.seconds_since Host.started in
  let probes =
    List.init (setup_runs - 1) (fun _ ->
        setup_probe ~workload:w.Workload.name ~seed)
  in
  let m = Workload.run s ~seconds ~jobs ~dir in
  let walls = m.Workload.job_s in
  let per_job = m.Workload.computed / Array.length walls in
  let trial = Dist.summarize m.Workload.trial_s in
  let resub = Dist.summarize m.Workload.resubmit_s in
  let supported what (d : Dist.t) pm =
    if Dist.tail d.Dist.n >= Some pm then []
    else [ Printf.sprintf "%d %s are too few for their tail" d.Dist.n what ]
  in
  let problems =
    m.Workload.problems
    @ supported "trials" trial 900
    @ supported "resubmissions" resub 990
  in
  let throughput =
    {
      (median_of (Array.map (fun wall -> float per_job /. wall) walls)) with
      v = float m.Workload.computed /. Array.fold_left ( +. ) 0. walls;
    }
  in
  (* The mean, not the median: the host runs a burst of resubmissions
     either at full speed or about 1.5x slower (its other tenants), and
     a median of that two-state mix jumps between the states from run to
     run where the mean moves with the slow share. *)
  let resub_mean =
    let xs = m.Workload.resubmit_s in
    Array.fold_left ( +. ) 0. xs /. float (Array.length xs)
  in
  let metrics =
    [
      ("trials_per_s", throughput);
      ("trial_p50_s", of_dist (fun d -> d.Dist.median) trial);
      ("trial_p90_s", of_dist (fun d -> d.Dist.p90) trial);
      ("resubmit_mean_ms", of_dist ~scale:1e3 (fun _ -> resub_mean) resub);
      ("resubmit_p99_ms", of_dist ~scale:1e3 (fun d -> d.Dist.p99) resub);
      ("setup_s", median_of (Array.of_list (own :: probes)));
      ("max_rss_mib", single (Host.max_rss_mib ()));
    ]
  in
  (m.Workload.digest, m.Workload.attempted, m.Workload.failed, problems, metrics)

let per_layer s ~seconds ~dir =
  let t = Layers.run s ~seconds ~dir in
  let value (m : Spec.metric) =
    let base, pick =
      match Filename.chop_suffix_opt ~suffix:".p90" m.Spec.name with
      | Some base -> (base, fun d -> d.Dist.p90)
      | None -> (m.Spec.name, fun d -> d.Dist.median)
    in
    match
      ( Hashtbl.find_opt t.Layers.samples base,
        List.assoc_opt m.Spec.name t.Layers.scalars )
    with
    | Some xs, _ -> of_dist pick (Dist.summarize (Array.of_list xs))
    | None, Some v -> single v
    | None, None -> failwith ("the trace measured no " ^ m.Spec.name)
  in
  let metrics = List.map (fun m -> (m.Spec.name, value m)) Spec.per_layer in
  let v name = (List.assoc name metrics).v in
  if abs_float (v "serve.unattributed_ms") > 0.1 *. v "serve.compute_ms" then
    Printf.printf "WARNING: unattributed %.3g ms is over 10%% of a %.3g ms trial\n"
      (v "serve.unattributed_ms") (v "serve.compute_ms");
  let p = t.Layers.problems in
  (t.Layers.digest, t.Layers.attempted, List.length p, p, metrics)

let num f = Json.Num f

let metrics_json ~detail metrics =
  Json.Obj
    (List.map
       (fun (name, x) ->
         let extra =
           if detail then
             [ ("n", num (float x.n)); ("q1", num x.q1); ("q3", num x.q3) ]
           else []
         in
         ( name,
           Json.Obj
             ([ ("value", num x.v); ("unit", Json.Str (unit_of name)) ] @ extra)
         ))
       metrics)

let one_workload (w : Workload.t) ~seed ~seconds ~trace ~jobs ~goldens =
  let name = w.Workload.name in
  let golden = Spec.golden (read_json goldens) ~seed ~workload:name in
  let digest, attempted, failed, problems, metrics =
    Host.with_scratch (fun dir ->
        let s = Workload.setup w ~seed ~dir in
        if trace then per_layer s ~seconds ~dir
        else end_to_end w s ~seed ~seconds ~jobs ~dir)
  in
  let problems =
    List.sort_uniq compare problems
    @
    match golden with
    | Some g when g <> digest ->
        [ Printf.sprintf "result digest %s, golden for seed %d is %s" digest seed g ]
    | _ -> []
  in
  let correct = problems = [] in
  List.iter (fun p -> Printf.printf "FAIL %s: %s\n" name p) problems;
  let t =
    Tp_util.Table.create
      ~title:(Printf.sprintf "%s, seed %d, result digest %s" name seed digest)
      ~headers:[ "metric"; "value"; "unit"; "n"; "q1"; "q3" ]
  in
  let g = Printf.sprintf "%.5g" in
  List.iter
    (fun (m, x) ->
      Tp_util.Table.add_row t
        [ m; g x.v; unit_of m; string_of_int x.n; g x.q1; g x.q3 ])
    metrics;
  Tp_util.Table.print t;
  (* The full record for [run]/[trace] and the trajectory files... *)
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("ledger", Json.Str "tpsim-ledger/1");
            ("workload", Json.Str name);
            ("seed", num (float seed));
            ("trace", Json.Bool trace);
            ("result_digest", Json.Str digest);
            ("problems", Json.Arr (List.map (fun p -> Json.Str p) problems));
            ("metrics", metrics_json ~detail:true metrics);
          ]));
  (* ...and last, the result object a benchmark runner reads. *)
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", num (float attempted));
            ("failed", num (float (if correct then failed else attempted)));
            ("metrics", metrics_json ~detail:false metrics);
          ]));
  if not correct then exit 1

(* ---- every workload, one child process each ----------------------- *)

(* Runs one workload in a child, echoing its report; returns the
   child's full record and whether it exited cleanly. *)
let child ~workload ~seed ~seconds ~trace ~jobs ~goldens =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [|
        exe; "--workload"; workload; "--seed"; string_of_int seed;
        "--seconds"; string_of_int seconds; "--trace";
        (if trace then "1" else "0");
        "--jobs"; string_of_int jobs; "--goldens"; goldens;
      |]
  in
  let record = ref None in
  In_channel.fold_lines
    (fun () line ->
      if String.starts_with ~prefix:"{\"ledger\"" line then
        record := Json.parse_opt line
      else if not (String.starts_with ~prefix:"{" line) then
        print_endline line)
    () ic;
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  match !record with
  | Some r -> (r, ok)
  | None -> die "%s printed no result" workload

(* A pass runs every workload once per seed, seeds outermost, so slow
   spells of the host fall on all workloads alike.  It returns each
   workload's metric values, one per seed. *)
type pass = {
  records : Json.t list;
  ok : bool;
  values : (string * (string * float array) list) list;
      (** workload -> metric -> one value per seed *)
}

let pass ~seeds ~seconds ~trace ~jobs ~goldens =
  let runs =
    List.concat_map
      (fun seed ->
        List.map
          (fun workload ->
            (workload, child ~workload ~seed ~seconds ~trace ~jobs ~goldens))
          names)
      seeds
  in
  let value r name =
    Option.bind (Json.member "metrics" r) (fun ms ->
        Option.bind (Json.member name ms) (fun m ->
            Option.bind (Json.member "value" m) Json.num))
  in
  let metrics =
    List.map
      (fun (m : Spec.metric) -> m.Spec.name)
      (if trace then Spec.per_layer else Spec.end_to_end)
  in
  {
    records = List.map (fun (_, (r, _)) -> r) runs;
    ok = List.for_all (fun (_, (_, ok)) -> ok) runs;
    values =
      List.map
        (fun workload ->
          let mine = List.filter (fun (w, _) -> w = workload) runs in
          ( workload,
            List.map
              (fun name ->
                ( name,
                  Array.of_list
                    (List.filter_map (fun (_, (r, _)) -> value r name) mine) ))
              metrics ))
        names;
  }

let median xs = (Dist.summarize xs).Dist.median
let at p workload name = List.assoc name (List.assoc workload p.values)

(* The end-to-end bounds BENCHMARK.json declares. *)
let bounds benchmark =
  List.filter_map
    (fun o ->
      match
        ( Option.bind (Json.member "name" o) Json.str,
          Option.bind (Json.member "bound" o) Json.num )
      with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (Option.value
       (Option.bind (Json.member "end_to_end" (read_json benchmark)) Json.arr)
       ~default:[])

(* Each cell: the median over seeds and, across seeds, the spread
   (first to third quartile over the median), flagged "!" when it
   exceeds the metric's bound. *)
let summary ~bounds title p =
  let t = Tp_util.Table.create ~title ~headers:("metric" :: "unit" :: names) in
  let over = ref 0 in
  List.iter
    (fun (name, _) ->
      let cell workload =
        let xs = at p workload name in
        match Dist.spread xs with
        | None -> Printf.sprintf "%.4g" (median xs)
        | Some s ->
            let flag =
              match List.assoc_opt name bounds with
              | Some b when s > b && name <> "setup_s" ->
                  incr over;
                  " !"
              | _ -> ""
            in
            Printf.sprintf "%.4g iqr %.0f%%%s" (median xs) (100. *. s) flag
      in
      Tp_util.Table.add_row t (name :: unit_of name :: List.map cell names))
    (snd (List.hd p.values));
  Tp_util.Table.print t;
  !over

(* How much worse each later pass's median is than the first's, as a
   share of the first; "!" marks a change beyond the metric's bound. *)
let agreement ~bounds first later =
  let t =
    Tp_util.Table.create
      ~title:"later passes vs the first: median change in the worse direction"
      ~headers:("metric" :: names)
  in
  let over = ref 0 in
  List.iter
    (fun (name, bound) ->
      let higher =
        match Spec.find name with
        | Some m -> m.Spec.better = Spec.Higher
        | None -> false
      in
      let cell workload =
        let m0 = median (at first workload name) in
        String.concat " "
          (List.map
             (fun p ->
               let m = median (at p workload name) in
               let worse = (if higher then m0 -. m else m -. m0) /. m0 in
               let flag = if worse > bound then (incr over; "!") else "" in
               Printf.sprintf "%+.1f%%%s" (100. *. worse) flag)
             later)
      in
      Tp_util.Table.add_row t (name :: List.map cell names))
    bounds;
  Tp_util.Table.print t;
  !over

let aggregate ~seeds ~seconds ~jobs ~goldens ~benchmark ~repeat ~traced
    ~untraced ~out =
  let bounds = bounds benchmark in
  let runs =
    if untraced then
      List.init repeat (fun _ -> pass ~seeds ~seconds ~trace:false ~jobs ~goldens)
    else []
  in
  let trace =
    if traced then
      [ pass ~seeds:[ List.hd seeds ] ~seconds ~trace:true ~jobs ~goldens ]
    else []
  in
  let over = ref 0 in
  List.iteri
    (fun i p ->
      let title =
        Printf.sprintf "end to end, pass %d: median over seeds %s" (i + 1)
          (String.concat "," (List.map string_of_int seeds))
      in
      over := !over + summary ~bounds title p)
    runs;
  List.iter (fun p -> ignore (summary ~bounds:[] "per layer" p)) trace;
  (match runs with
  | first :: (_ :: _ as later) -> over := !over + agreement ~bounds first later
  | _ -> ());
  if !over > 0 then
    print_endline
      "Some spreads or pass-to-pass changes exceed their bounds (marked !): \
       the host was noisier than the bounds allow, so comparisons made now \
       are unresolved.";
  let records p = Json.Arr p.records in
  Option.iter
    (fun path ->
      write_json path
        (Json.Obj
           [
             ("schema", Json.Str "tpsim-ledger/1");
             ("seeds", Json.Arr (List.map (fun s -> num (float s)) seeds));
             ("seconds", num (float seconds));
             ("jobs", num (float jobs));
             ("nproc", num (float (Domain.recommended_domain_count ())));
             ("runs", Json.Arr (List.map records runs));
             ("trace", match trace with [ p ] -> records p | _ -> Json.Arr []);
           ]))
    out;
  if not (List.for_all (fun p -> p.ok) (runs @ trace)) then exit 1

(* ---- goldens and check -------------------------------------------- *)

let goldens_update ~seeds ~path =
  let digest_of (w : Workload.t) seed =
    Host.with_scratch (fun dir ->
        let s = Workload.setup w ~seed ~dir in
        let r, _ =
          Workload.with_store (Filename.concat dir "job") (fun store ->
              Workload.submit ~store ~rev:s.Workload.rev ~jobs:2 s.Workload.job)
        in
        if Workload.job_problems ~expect_cached:false r <> [] then
          die "%s, seed %d: the job did not complete" w.Workload.name seed;
        Workload.result_digest r)
  in
  let per_seed seed =
    ( string_of_int seed,
      Json.Obj
        (List.map
           (fun (w : Workload.t) ->
             let d = digest_of w seed in
             Printf.printf "seed %d %-16s %s\n%!" seed w.Workload.name d;
             (w.Workload.name, Json.Str d))
           Workload.all) )
  in
  write_json path
    (Json.Obj
       [
         ("schema", Json.Str "tpsim-ledger-goldens/1");
         ("digests", Json.Obj (List.map per_seed seeds));
       ])

let check ~benchmark ~goldens =
  let errs =
    List.map
      (fun e -> (benchmark, e))
      (Spec.check_benchmark ~workloads:names (read_json benchmark))
    @ List.map
        (fun e -> (goldens, e))
        (Spec.check_goldens ~workloads:names (read_json goldens))
  in
  List.iter (fun (file, e) -> Printf.eprintf "%s: %s\n" file e) errs;
  if errs <> [] then exit 1;
  Printf.printf
    "%s: %d workloads, %d end-to-end and %d per-layer metrics; %s: seeds 1 \
     and 2\n"
    benchmark (List.length names)
    (List.length Spec.end_to_end)
    (List.length Spec.per_layer)
    goldens

(* ---- command line ------------------------------------------------- *)

let () =
  let sub, rest =
    match List.tl (Array.to_list Sys.argv) with
    | ("run" | "trace" | "check" | "goldens" | "setup-probe") as c :: r -> (c, r)
    | r -> ("workload", r)
  in
  let workload = ref "" and seed = ref 1 and seconds = ref 40 in
  let trace = ref 0 and jobs = ref 2 and repeat = ref 1 in
  let with_trace = ref false and out = ref None and seeds = ref None in
  let goldens = ref "ledger/goldens.json" in
  let benchmark = ref "BENCHMARK.json" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME the workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S window per workload (default 40)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--jobs", Arg.Set_int jobs, "J engine worker domains (default 2)");
      ("--goldens", Arg.Set_string goldens, "FILE golden digests");
      ("--benchmark", Arg.Set_string benchmark, "FILE benchmark definition");
      ("--repeat", Arg.Set_int repeat, "K end-to-end passes (run)");
      ("--with-trace", Arg.Set with_trace, " add a per-layer pass (run)");
      ("--out", Arg.String (fun f -> out := Some f), "FILE trajectory file");
      ( "--seeds",
        Arg.String (fun s -> seeds := Some s),
        "LIST seeds to run (run, trace) or record (goldens; default 1,2)" );
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0)
       (Array.of_list (Sys.executable_name :: rest))
       spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       "ledger.exe [run|trace|check|goldens] [options]"
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  let workload_of name =
    match Workload.find name with
    | Some w -> w
    | None ->
        die "unknown workload %S (expected one of: %s)" name
          (String.concat ", " names)
  in
  if !seconds < 1 then die "--seconds must be at least 1";
  let seed_list s =
    List.map
      (fun s ->
        match int_of_string_opt s with
        | Some n -> n
        | None -> die "--seeds: %S is not a seed" s)
      (String.split_on_char ',' s)
  in
  match sub with
  | "workload" ->
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      one_workload (workload_of !workload) ~seed:!seed ~seconds:!seconds
        ~trace:(!trace = 1) ~jobs:!jobs ~goldens:!goldens
  | "setup-probe" ->
      let w = workload_of !workload in
      Host.with_scratch (fun dir -> ignore (Workload.setup w ~seed:!seed ~dir));
      Printf.printf "%.9f\n" (Host.seconds_since Host.started)
  | "run" | "trace" ->
      aggregate
        ~seeds:(Option.fold ~none:[ !seed ] ~some:seed_list !seeds)
        ~seconds:!seconds ~jobs:!jobs ~goldens:!goldens ~benchmark:!benchmark
        ~repeat:!repeat ~untraced:(sub = "run")
        ~traced:(sub = "trace" || !with_trace)
        ~out:!out
  | "goldens" ->
      goldens_update
        ~seeds:(seed_list (Option.value !seeds ~default:"1,2"))
        ~path:!goldens
  | _ -> check ~benchmark:!benchmark ~goldens:!goldens
