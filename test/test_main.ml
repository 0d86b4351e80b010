(* The test suites: the one list of them.

   [test_main.exe] runs every suite in one process.  [test_main.exe
   KEY [ALCOTEST-ARGS]] runs just the one with that key, which is how
   `dune runtest` runs each suite as its own action, in parallel.  A
   suite too long for that may be split into shards: each shard has a
   key of its own (its runtest rule and log directory), while Alcotest
   still reports its tests under the suite's name.  The rules live in
   test/dune.inc, written by [test_main.exe --dune-rules FILE] and
   checked against this list on every runtest (after adding a suite or
   shard, `dune runtest` fails until `dune promote` updates the file). *)
let shards =
  [
    ("util", "util", Test_util.suite);
    ("hw", "hw", Test_hw.suite);
    ("replay", "replay", Test_replay.suite);
    ("channel", "channel", Test_channel.suite);
    ("kernel", "kernel", Test_kernel.suite);
    ("extensions", "extensions", Test_extensions.suite);
    ("invariants", "invariants", Test_invariants.suite);
    ("fault", "fault", Test_fault.suite);
    ("mcs", "mcs", Test_mcs.suite);
    ("cspace", "cspace", Test_cspace.suite);
    ("attacks", "attacks", Test_attacks.suite);
    ("workloads", "workloads", Test_workloads.suite);
    ("core", "core", Test_core.suite);
    ("core-table6", "core", Test_core.table6_suite);
    ("obs", "obs", Test_obs.suite);
    ("par", "par", Test_par.suite);
    ("store", "store", Test_store.suite);
    ("serve", "serve", Test_serve.suite);
    ("analysis", "analysis", Test_analysis.suite);
    ("certify", "certify", Test_certify.suite);
  ]

(* The suites as Alcotest sees them: shards of one suite rejoined, in
   list order. *)
let suites =
  List.fold_left
    (fun names (_, name, _) ->
      if List.mem name names then names else names @ [ name ])
    [] shards
  |> List.map (fun name ->
         ( name,
           List.concat_map
             (fun (_, n, tests) -> if n = name then tests else [])
             shards ))

(* Files of the source tree a shard reads, declared as dependencies of
   its rule so that editing one reruns the shard.  Every shard runs
   from the root of the build context, as [dune exec] runs it from the
   repository root, so both find such files by the same relative
   path. *)
let deps = [ ("certify", "(glob_files ../certs/kernel/*.cert.json)") ]

let dune_rule oc key =
  Printf.fprintf oc
    "(rule\n (alias runtest)\n%s (action\n  (chdir %%{workspace_root}\n\
    \   (run %%{exe:test_main.exe} %s))))\n"
    (match List.assoc_opt key deps with
    | Some d -> Printf.sprintf " (deps %s)\n" d
    | None -> "")
    key

let () =
  match Array.to_list Sys.argv with
  | [ _; "--dune-rules"; file ] ->
      Out_channel.with_open_text file (fun oc ->
          List.iter (fun (key, _, _) -> dune_rule oc key) shards)
  | exe :: key :: rest when List.exists (fun (k, _, _) -> k = key) shards ->
      (* A log directory of its own, so shards running side by side do
         not race on Alcotest's "latest" symlink.  The other suites are
         registered empty: Alcotest sizes its name column, and so
         truncates test names, by the longest suite name. *)
      let _, name, tests = List.find (fun (k, _, _) -> k = key) shards in
      Alcotest.run
        ~argv:(Array.of_list (exe :: rest))
        ~log_dir:(Filename.concat "_build/_tests" key)
        "time-protection"
        (List.map (fun (n, _) -> (n, if n = name then tests else [])) suites)
  | _ -> Alcotest.run "time-protection" suites
