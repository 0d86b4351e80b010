(* The test suites: the one list of them.

   [test_main.exe] runs every suite in one process.  [test_main.exe
   SUITE [ALCOTEST-ARGS]] runs just that one, which is how `dune
   runtest` runs each suite as its own action, in parallel.  Those
   rules live in test/dune.inc, written by [test_main.exe --dune-rules
   FILE] and checked against this list on every runtest (after adding a
   suite, `dune runtest` fails until `dune promote` updates the file). *)
let suites =
  [
    ("util", Test_util.suite);
    ("hw", Test_hw.suite);
    ("replay", Test_replay.suite);
    ("channel", Test_channel.suite);
    ("kernel", Test_kernel.suite);
    ("extensions", Test_extensions.suite);
    ("invariants", Test_invariants.suite);
    ("fault", Test_fault.suite);
    ("mcs", Test_mcs.suite);
    ("cspace", Test_cspace.suite);
    ("attacks", Test_attacks.suite);
    ("workloads", Test_workloads.suite);
    ("core", Test_core.suite);
    ("obs", Test_obs.suite);
    ("par", Test_par.suite);
    ("store", Test_store.suite);
    ("serve", Test_serve.suite);
    ("analysis", Test_analysis.suite);
    ("certify", Test_certify.suite);
  ]

let dune_rule oc (name, _) =
  Printf.fprintf oc
    "(rule\n (alias runtest)\n (deps ../bench/baseline.json)\n (action\n  \
     (run %%{exe:test_main.exe} %s)))\n"
    name

let () =
  match Array.to_list Sys.argv with
  | [ _; "--dune-rules"; file ] ->
      Out_channel.with_open_text file (fun oc ->
          List.iter (dune_rule oc) suites)
  | exe :: name :: rest when List.mem_assoc name suites ->
      (* A log directory of its own, so suites running side by side do
         not race on Alcotest's "latest" symlink.  The other suites are
         registered empty: Alcotest sizes its name column, and so
         truncates test names, by the longest suite name. *)
      Alcotest.run
        ~argv:(Array.of_list (exe :: rest))
        ~log_dir:(Filename.concat "_build/_tests" name)
        "time-protection"
        (List.map (fun (n, s) -> (n, if n = name then s else [])) suites)
  | _ -> Alcotest.run "time-protection" suites
