(* tpsim: run the time-protection reproduction experiments from the
   command line.  Every paper table/figure is a subcommand; `all` runs
   the full evaluation. *)

open Cmdliner
open Tp_core

(* A proper enum conv: an unknown platform is a usage error with the
   valid alternatives listed, not an Invalid_argument backtrace. *)
let platform_choices =
  [
    ("haswell", [ Tp_hw.Platform.haswell ]);
    ("sabre", [ Tp_hw.Platform.sabre ]);
    ("armv8", [ Tp_hw.Platform.armv8 ]);
    ("both", [ Tp_hw.Platform.haswell; Tp_hw.Platform.sabre ]);
    ("all", Tp_hw.Platform.all);
  ]

let platform_arg =
  let doc =
    "Platform: $(b,haswell), $(b,sabre), $(b,armv8), $(b,both) (the \
     paper's two) or $(b,all)."
  in
  Arg.(
    value
    & opt (enum platform_choices) (List.assoc "both" platform_choices)
    & info [ "p"; "platform" ] ~docv:"PLATFORM" ~doc)

let quality_arg =
  let doc = "Experiment size: $(b,quick) or $(b,full)." in
  Arg.(
    value
    & opt (enum [ ("quick", Quality.Quick); ("full", Quality.Full) ]) Quality.Quick
    & info [ "q"; "quality" ] ~docv:"QUALITY" ~doc)

let seed_arg =
  let doc = "PRNG seed (experiments are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let verbose_arg =
  let doc = "Log kernel events (clone/destroy/switch) to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let inject_arg =
  let doc =
    "Arm a one-shot kernel fault at injection point $(docv) (format \
     POINT[:HIT], e.g. clone.copy:2 for the third crossing); exercises \
     the kernel's error paths and the harness's recovery under a real \
     experiment.  An unknown point name is warned about, with the known \
     names listed."
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"POINT" ~doc)

let setup_logging verbose =
  if verbose then begin
    (* Worker domains of the trial pool log too: serialise the
       reporter so interleaved kernel events stay line-atomic. *)
    let m = Mutex.create () in
    let r = Logs_fmt.reporter () in
    Logs.set_reporter
      {
        Logs.report =
          (fun src level ~over k msgf ->
            Mutex.lock m;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock m)
              (fun () -> r.Logs.report src level ~over k msgf));
      };
    Logs.set_level (Some Logs.Debug)
  end

let jobs_arg =
  let doc =
    "Worker domains for independent trials.  Experiments fan their \
     trials out on a deterministic pool whose output is bit-identical \
     at every $(docv), including 1 (the sequential path).  Default: \
     what the host offers.  Incompatible with $(b,--inject), whose \
     fault plans are process-global state: the combination is \
     rejected."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Resolve -j against --inject via the pool's validator; an explicit
   parallel request under injection is a usage error (`Error in a
   Term.ret term), never a silent downgrade. *)
let setup_jobs jobs inject =
  match Tp_par.Pool.validate_jobs ~jobs ~inject:(inject <> None) with
  | Ok j ->
      Tp_par.Pool.set_default_jobs j;
      Ok ()
  | Error msg -> Error msg

let setup_fault = function
  | None -> ()
  | Some s ->
      let point, hit =
        match String.index_opt s ':' with
        | None -> (s, 0)
        | Some i -> (
            ( String.sub s 0 i,
              match
                int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
              with
              | Some h when h >= 0 -> h
              | Some _ | None ->
                  prerr_endline
                    "tpsim: --inject expects POINT[:HIT] with HIT a \
                     non-negative integer, e.g. clone.copy:2";
                  exit 1 ))
      in
      let known = Tp_fault.Fault.points () in
      if not (List.mem point known) then
        Printf.eprintf
          "tpsim: warning: unknown injection point %s (known: %s)\n%!" point
          (String.concat ", " known);
      Tp_fault.Fault.arm ~point ~hit
        (Tp_kernel.Types.Kernel_error Tp_kernel.Types.Insufficient_untyped)

let run_over plats f = List.iter f plats

(* Global observability flags.  They are recognised anywhere on the
   command line — also before the subcommand, which cmdliner's
   [Cmd.group] cannot parse — so they are extracted from argv up front
   and the exporters run from [at_exit] (covering early exits such as
   the injected-fault abort). *)
let obs_trace = ref None
let obs_metrics = ref None
let obs_counters = ref false

let strip_obs_argv argv =
  let n = Array.length argv in
  let keep = ref [] in
  let i = ref 0 in
  let value_of flag =
    if !i + 1 >= n then begin
      Printf.eprintf "tpsim: option '%s' needs a FILE argument\n%!" flag;
      exit 124
    end;
    incr i;
    argv.(!i)
  in
  let prefixed ~prefix s =
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      Some (String.sub s pl (String.length s - pl))
    else None
  in
  while !i < n do
    (match argv.(!i) with
    | "--trace" -> obs_trace := Some (value_of "--trace")
    | "--metrics" -> obs_metrics := Some (value_of "--metrics")
    | "--counters" -> obs_counters := true
    | s -> (
        match (prefixed ~prefix:"--trace=" s, prefixed ~prefix:"--metrics=" s) with
        | Some f, _ -> obs_trace := Some f
        | None, Some f -> obs_metrics := Some f
        | None, None -> keep := s :: !keep));
    incr i
  done;
  Array.of_list (List.rev !keep)

let setup_obs () =
  if !obs_counters || !obs_metrics <> None then Tp_obs.Ctl.set_counters true;
  if !obs_trace <> None then Tp_obs.Trace.start ()

let finish_obs () =
  (match !obs_trace with
  | Some f ->
      Tp_obs.Trace.export_chrome_file f;
      Printf.eprintf "tpsim: wrote %d trace events (%d dropped) to %s\n%!"
        (Tp_obs.Trace.recorded ()) (Tp_obs.Trace.dropped ()) f
  | None -> ());
  (match !obs_metrics with
  | Some f ->
      Tp_obs.Trace.export_metrics_file f;
      Printf.eprintf "tpsim: wrote counter metrics to %s\n%!" f
  | None -> ());
  if !obs_counters then
    Tp_util.Table.print (Tp_obs.Counter.table (Tp_obs.Counter.registered ()))

let cmd_platforms =
  let run () =
    List.iter
      (fun p ->
        Format.printf "%a@.@." Tp_hw.Platform.pp p)
      Tp_hw.Platform.all
  in
  Cmd.v (Cmd.info "platforms" ~doc:"Describe the modelled platforms (Table 1).")
    Term.(const run $ const ())

let mk_cmd name doc f =
  let run plats q seed verbose inject jobs =
    match setup_jobs jobs inject with
    | Error msg -> `Error (false, msg)
    | Ok () -> (
        setup_logging verbose;
        setup_fault inject;
        try
          run_over plats (fun p -> f q ~seed p);
          `Ok ()
        with Tp_kernel.Types.Kernel_error e when inject <> None ->
          (* The armed fault fired outside a recoverable loop (e.g.
             during scenario boot) and propagated cleanly — the error
             path held. *)
          Format.printf "experiment aborted by injected fault: %s@."
            (Tp_kernel.Types.error_to_string e);
          exit 2)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      ret
        (const run $ platform_arg $ quality_arg $ seed_arg $ verbose_arg
       $ inject_arg $ jobs_arg))

let table2 _q ~seed:_ p = Report.table2 (Exp_table2.run p)
let fig3 q ~seed p = Report.fig3 (Exp_fig3.run q ~seed p)
let table3 q ~seed p = Report.table3 (Exp_table3.run q ~seed p)

let table4 q ~seed p =
  let r = Exp_table4.run q ~seed p in
  Report.fig5 r;
  Report.table4 r

let fig4 q ~seed p = Report.fig4 (Exp_fig4.run q ~seed p)
let fig6 q ~seed p = Report.fig6 (Exp_fig6.run q ~seed p)
let table5 q ~seed:_ p = Report.table5 (Exp_table5.run q p)
let table6 q ~seed:_ p = Report.table6 (Exp_table6.run q p)
let table7 q ~seed:_ p = Report.table7 (Exp_table7.run q p)
let fig7 q ~seed p = Report.fig7 (Exp_fig7.run_fig7 q ~seed p)
let table8 q ~seed p = Report.table8 (Exp_fig7.run_table8 q ~seed p)

let bus q ~seed p =
  (* Beyond-paper demo: the interconnect channel the paper's threat
     model excludes, the hypothetical hardware fix, and Intel MBA's
     approximate throttling, which does not close it (footnote 5). *)
  let rng = Tp_util.Rng.create ~seed in
  let samples = Quality.samples q in
  let open_chan =
    Tp_attacks.Bus_chan.run (Scenario.boot Scenario.Protected p) ~samples
      ~partitioned:false ~rng
  in
  let closed =
    Tp_attacks.Bus_chan.run (Scenario.boot Scenario.Protected p) ~samples
      ~partitioned:true ~rng
  in
  let mba =
    Tp_attacks.Bus_chan.run_mode (Scenario.boot Scenario.Protected p) ~samples
      ~mode:(Tp_hw.Interconnect.Mba 0.4) ~rng
  in
  Format.printf
    "Interconnect channel on %s (cross-core, concurrent):@.  time \
     protection alone: %a@.  with hypothetical bandwidth partition: %a@.  \
     with Intel-MBA-style throttling (40%%): %a@.@."
    p.Tp_hw.Platform.name Tp_channel.Leakage.pp_result open_chan
    Tp_channel.Leakage.pp_result closed Tp_channel.Leakage.pp_result mba

let dram q ~seed p =
  (* Beyond-paper demo: the DRAM row-buffer channel from the §2.2
     taxonomy, which survives time protection (no architected row
     flush) and closes only with hypothetical hardware support. *)
  let open Tp_kernel in
  let samples = Quality.samples q / 2 in
  let run config =
    let b = Boot.boot ~platform:p ~config ~domains:2 () in
    let rng = Tp_util.Rng.create ~seed in
    Tp_attacks.Dram_chan.run b ~samples ~rng
  in
  Format.printf "DRAM row-buffer channel on %s (intra-core):@."
    p.Tp_hw.Platform.name;
  Format.printf "  raw:                              %a@."
    Tp_channel.Leakage.pp_result
    (run Config.raw);
  Format.printf "  full time protection:             %a@."
    Tp_channel.Leakage.pp_result
    (run (Config.protected_ p));
  Format.printf "  + hypothetical precharge-on-switch: %a@.@."
    Tp_channel.Leakage.pp_result
    (run { (Config.protected_ p) with Config.close_dram_rows = true })

let cat q ~seed p =
  (* §2.3's hardware alternative: way-partition the LLC with CAT.  It
     closes the cross-core LLC side channel without colouring, but
     being LLC-only it leaves every on-core channel open — the paper's
     case for mandatory kernel-level time protection. *)
  let rng = Tp_util.Rng.create ~seed in
  Format.printf "Intel CAT way-partitioned LLC on %s:@." p.Tp_hw.Platform.name;
  (match
     Tp_attacks.Crypto.run (Scenario.boot Scenario.Cat_llc p) ~key_bits:48 ~rng
   with
  | Some t when Array.exists (fun a -> a > 0) t.Tp_attacks.Crypto.activity ->
      Format.printf "  LLC attack: still open (unexpected)@."
  | Some _ | None -> Format.printf "  LLC side channel vs ElGamal: closed@.");
  let chan = Tp_attacks.Cache_channels.l1d in
  let b = Scenario.boot Scenario.Cat_llc p in
  let sender, receiver = chan.Tp_attacks.Cache_channels.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples = Quality.samples q / 2;
      symbols = chan.Tp_attacks.Cache_channels.symbols;
    }
  in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  let l1 = Tp_channel.Leakage.test ~rng r.data in
  Format.printf "  but the on-core L1-D channel:  %a@.@."
    Tp_channel.Leakage.pp_result l1

let cosched q ~seed p =
  (* §3.1.1's confinement mitigation for cross-core channels: gang
     scheduling so only one domain ever executes. *)
  let samples = Quality.samples q / 3 in
  let run placement =
    let b = Scenario.boot Scenario.Protected p in
    let sender, receiver = Tp_attacks.Cosched_chan.prepare b in
    let spec =
      {
        (Tp_attacks.Harness.default_spec p) with
        Tp_attacks.Harness.samples;
        symbols = Tp_attacks.Cosched_chan.symbols;
      }
    in
    let rng = Tp_util.Rng.create ~seed in
    let r =
      Tp_attacks.Harness.run_pair_result ~placement b ~sender ~receiver spec ~rng
    in
    Tp_channel.Leakage.test ~rng r.data
  in
  Format.printf "Cross-core bandwidth channel on %s, time protection on:@."
    p.Tp_hw.Platform.name;
  Format.printf "  free-running concurrency: %a@." Tp_channel.Leakage.pp_result
    (run Tp_attacks.Harness.Concurrent);
  Format.printf "  gang-scheduled domains:   %a@.@."
    Tp_channel.Leakage.pp_result (run Tp_attacks.Harness.Coscheduled)

let mls q ~seed p =
  let samples = Quality.samples q / 2 in
  let r = Mls.demo ~samples ~seed p in
  Format.printf "Bell-LaPadula padding policy on %s:@." p.Tp_hw.Platform.name;
  Format.printf "  High -> Low (forbidden):   %a@." Tp_channel.Leakage.pp_result
    r.Mls.high_to_low;
  Format.printf "  Low  -> High (authorised): %a@.@."
    Tp_channel.Leakage.pp_result r.Mls.low_to_high

let calibrate _q ~seed:_ p =
  let c = Calibrate.switch_pad p in
  Format.printf
    "%s: worst unpadded switch %d cycles over %d adversarial trials;@."
    p.Tp_hw.Platform.name c.Calibrate.worst_observed_cycles c.Calibrate.trials;
  Format.printf "calibrated pad %.1f us (+25%% margin); validates: %b@.@."
    c.Calibrate.pad_us
    (Calibrate.covers c p ~trials:8)

(* Microarchitectural statistics: run a steady-state domain-switching
   workload (two domains each sweeping an L1-D-sized buffer, as in the
   Table 6 measurement) with counters on, then dump every registered
   counter set and the pad-slack profile. *)
let stats q ~seed:_ p =
  let open Tp_kernel in
  Tp_obs.Ctl.set_counters true;
  let b = Scenario.boot Scenario.Protected p in
  let sys = b.Boot.sys in
  let line = p.Tp_hw.Platform.line in
  let page = Tp_hw.Defs.page_size in
  let l1d = p.Tp_hw.Platform.l1d.Tp_hw.Cache.size in
  let mk dom =
    let buf = Boot.alloc_pages b dom ~pages:(Stdlib.max 1 (l1d / page)) in
    let t =
      Boot.spawn b dom (fun ctx ->
          while true do
            for i = 0 to (l1d / line) - 1 do
              Uctx.write ctx (buf + (i * line))
            done
          done)
    in
    Sched.remove (System.sched sys) ~core:0 t;
    t
  in
  let a = mk b.Boot.domains.(0) in
  let bb = mk b.Boot.domains.(1) in
  (* Count the steady state, not the boot traffic. *)
  Tp_obs.Counter.reset_all ();
  Tp_obs.Padprof.reset ();
  let slice_cycles = Tp_hw.Platform.us_to_cycles p 1000.0 in
  for _ = 1 to Quality.repeats q do
    ignore (Exec.run_thread sys ~core:0 ~slice_cycles a);
    ignore (Exec.run_thread sys ~core:0 ~slice_cycles bb)
  done;
  Format.printf "==== %s: %d switching slices ====@.@." p.Tp_hw.Platform.name
    (2 * Quality.repeats q);
  Tp_util.Table.print (Tp_obs.Counter.table (Tp_obs.Counter.registered ()));
  Tp_obs.Padprof.report
    ~cycles_to_us:(Tp_hw.Platform.cycles_to_us p)
    Format.std_formatter ();
  let dropped = Tp_obs.Trace.dropped () in
  if dropped > 0 then
    Format.printf
      "warning: %d trace spans were dropped (ring full) — the trace \
       under-reports; trace a shorter window@."
      dropped

(* The reproduction, written once as (name, doc, run) in the order
   `all` runs it; each entry is also its own subcommand. *)
let experiments =
  [
    ("table2", "Worst-case cache flush costs (Table 2).", table2);
    ("fig3", "Kernel-image covert channel matrix (Figure 3).", fig3);
    ("table3", "Intra-core timing channels (Table 3).", table3);
    ("fig4", "Cross-core LLC side channel vs ElGamal (Figure 4).", fig4);
    ("table4", "Cache-flush latency channel incl. Figure 5 (Table 4).", table4);
    ("fig6", "Timer-interrupt channel (Figure 6).", fig6);
    ("table5", "IPC microbenchmark (Table 5).", table5);
    ("table6", "Domain-switch cost (Table 6).", table6);
    ("table7", "Kernel clone/destroy cost (Table 7).", table7);
    ("fig7", "Splash-2 colouring slowdowns (Figure 7).", fig7);
    ("table8", "Time-shared Splash-2 overhead (Table 8).", table8);
    ("bus", "Interconnect covert channel demo (beyond paper).", bus);
    ("dram", "DRAM row-buffer channel demo (beyond paper).", dram);
    ("cosched", "Gang-scheduling mitigation demo (Sec. 3.1.1).", cosched);
    ("cat", "Intel CAT way-partitioning demo (Sec. 2.3).", cat);
    ("mls", "Bell-LaPadula padding policy demo (Sec. 4.3).", mls);
    ( "calibrate",
      "Empirical worst-case pad calibration (Sec. 4.3).",
      calibrate );
  ]

let all q ~seed p =
  Format.printf "==================== %s ====================@.@."
    p.Tp_hw.Platform.name;
  List.iter (fun (_, _, run) -> run q ~seed p) experiments

let config_arg =
  let doc =
    "Scenario to lint: $(b,raw), $(b,full-flush), $(b,protected), \
     $(b,coloured-only), $(b,no-pad), $(b,no-prefetcher) or $(b,cat-llc)."
  in
  Arg.(
    value
    & opt (enum Scenario.slugs) Scenario.Protected
    & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let domains_arg =
  let doc = "Number of security domains to boot." in
  Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc)

let json_arg =
  let doc = "Emit the reports as a JSON array instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let sarif_arg =
  let doc =
    "Emit the reports as SARIF 2.1.0 (GitHub code-scanning format) \
     instead of text.  Mutually exclusive with $(b,--json)."
  in
  Arg.(value & flag & info [ "sarif" ] ~doc)

let out_arg =
  let doc = "Write the output to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let with_out file f =
  match file with
  | None -> f stdout
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* The analysis subcommands' one output path: [text] by default,
   [json_doc] under --json, the reports as SARIF under --sarif (the two
   are exclusive), to stdout or -o FILE. *)
let render ~json ~sarif ~out ~text ~json_doc reports =
  if json && sarif then begin
    Printf.eprintf "tpsim: --json and --sarif are mutually exclusive\n%!";
    exit 2
  end;
  with_out out (fun oc ->
      if json then output_string oc (json_doc ())
      else if sarif then
        output_string oc (Tp_analysis.Diag.reports_to_sarif reports)
      else begin
        let ppf = Format.formatter_of_out_channel oc in
        text ppf;
        Format.pp_print_flush ppf ()
      end)

let render_reports ~json ~sarif ~out reports =
  render ~json ~sarif ~out reports
    ~text:(fun ppf ->
      List.iter
        (fun r -> Format.fprintf ppf "%a@." Tp_analysis.Diag.pp_report r)
        reports)
    ~json_doc:(fun () -> Tp_analysis.Diag.reports_to_json reports)

(* With --output, a per-report summary on stderr (stdout carried the
   report itself). *)
let report_summary ~what out reports =
  match out with
  | Some f ->
      List.iter
        (fun (r : Tp_analysis.Diag.report) ->
          Printf.eprintf "tpsim: %s: %s\n%!" r.subject
            (Tp_analysis.Diag.summary r))
        reports;
      Printf.eprintf "tpsim: wrote %s to %s\n%!" what f
  | None -> ()

let cmd_lint =
  (* Static time-protection linter (plus the dynamic §4.1 audit): does
     the booted configuration actually establish the isolation it
     claims? *)
  let run plats kind domains json sarif out verbose =
    setup_logging verbose;
    let reports =
      List.map
        (fun p ->
          let b = Scenario.boot ~domains kind p in
          let subject =
            Printf.sprintf "lint %s %s" p.Tp_hw.Platform.name
              (Scenario.name kind)
          in
          let r = Tp_analysis.Lint.run ~subject b in
          (* Kernel-certifier unsoundness canary (TP-KCERT-UNSOUND):
             the certified switch-path bound must stay inside its
             Bounds-derived analytic envelope. *)
          let kc =
            Tp_analysis.Kcert.lint_crosscheck p
              ~config_name:(Scenario.slug kind) (Scenario.config kind p)
          in
          {
            r with
            Tp_analysis.Diag.findings = r.Tp_analysis.Diag.findings @ kc;
          })
        plats
    in
    render_reports ~json ~sarif ~out reports;
    report_summary ~what:"lint report" out reports
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static time-protection linter: colour/CAT disjointness, clone \
          coverage, IRQ partitioning and pad sufficiency against the \
          analytic worst-case switch bound, plus the dynamic \
          shared-data audit.")
    Term.(
      const run $ platform_arg $ config_arg $ domains_arg $ json_arg
      $ sarif_arg $ out_arg $ verbose_arg)

let cmd_ctcheck =
  (* Constant-time checker over the bundled fixtures: static taint
     verdict cross-checked against a dynamic two-secret trace diff. *)
  let run plats json sarif out verbose =
    setup_logging verbose;
    let failed = ref 0 in
    let reports =
      List.concat_map
        (fun p ->
          List.map
            (fun fx ->
              let v = Tp_analysis.Ctcheck.check_fixture p fx in
              if not v.Tp_analysis.Ctcheck.v_pass then incr failed;
              Tp_analysis.Ctcheck.report p v)
            Tp_analysis.Ctcheck.fixtures)
        plats
    in
    render_reports ~json ~sarif ~out reports;
    (match out with
    | Some f -> Printf.eprintf "tpsim: wrote ctcheck report to %s\n%!" f
    | None -> ());
    if !failed > 0 then begin
      Printf.eprintf "tpsim: %d constant-time verdicts failed\n%!" !failed;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "ctcheck"
       ~doc:
         "Constant-time checker: secret-taint dataflow over the guest IR \
          fixtures (incl. the Sec. 5.3.3 square-and-multiply victim), \
          cross-checked by executing each fixture under two secrets and \
          diffing the address/branch traces.")
    Term.(const run $ platform_arg $ json_arg $ sarif_arg $ out_arg $ verbose_arg)

let certify_configs_arg =
  let doc =
    "Configuration(s) to certify (repeatable): $(b,raw), $(b,full-flush), \
     $(b,protected), $(b,coloured-only), $(b,no-pad), $(b,no-prefetcher) \
     or $(b,cat-llc).  Default: raw, full-flush, coloured-only, no-pad \
     and protected."
  in
  Arg.(
    value
    & opt_all (enum Scenario.slugs) []
    & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let exhaustive_arg =
  let doc =
    "Also run the small-scope model check: enumerate every two-domain \
     schedule on the shrunken machine and require all attacker \
     observations to be identical across victim secrets; prints the \
     concrete distinguishing schedule when one exists."
  in
  Arg.(value & flag & info [ "exhaustive" ] ~doc)

let fixtures_arg =
  let doc =
    "Additionally certify each bundled ctcheck guest program: the \
     channel capacities are tightened to the program's abstract \
     footprint."
  in
  Arg.(value & flag & info [ "fixtures" ] ~doc)

let kernel_arg =
  let doc =
    "Certify the kernel's own lifecycle paths instead of guest \
     programs: lift the 12-step $(b,Domain_switch) sequence, the \
     $(b,Clone.clone) image copy and the $(b,Clone.destroy) teardown \
     into access traces, derive a sound per-execution leakage bound \
     per (platform, configuration, path), and cross-validate each with \
     the 3-domain small-scope model check.  Without $(b,-c), all seven \
     scenario configurations are certified; without $(b,--path), all \
     three paths."
  in
  Arg.(value & flag & info [ "kernel" ] ~doc)

let paths_arg =
  let doc =
    "With $(b,--kernel): lifecycle path(s) to certify (repeatable): \
     $(b,switch), $(b,clone) or $(b,destroy).  Default: all three."
  in
  Arg.(
    value
    & opt_all
        (enum
           (List.map
              (fun pa -> (Tp_analysis.Certify.kernel_path_slug pa, pa))
              Tp_analysis.Certify.all_kernel_paths))
        []
    & info [ "path" ] ~docv:"PATH" ~doc)

let certs_arg =
  let doc =
    "With $(b,--kernel): directory of golden certificate artifacts \
     ($(b,<platform>-<config>-<path>.cert.json)): (re)writes every \
     certificate into it.  The $(b,certify) test suite byte-compares \
     the checked-in goldens against a fresh build."
  in
  Arg.(value & opt (some string) None & info [ "certs" ] ~docv:"DIR" ~doc)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

(* `certify --kernel`: per-(platform, config, path) lifecycle
   certificates, each cross-validated by the 3-domain exhaustive check
   (with the neighbour performing that path's operation), emitted as
   deterministic content-digested artifacts. *)
let certify_kernel plats kinds paths ~json ~sarif ~out ~certs_dir =
  let kinds =
    match kinds with [] -> List.map snd Scenario.slugs | ks -> ks
  in
  let paths =
    match paths with [] -> Tp_analysis.Certify.all_kernel_paths | ps -> ps
  in
  let entries =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun kind ->
            let cfg = Scenario.config kind p in
            List.map
              (fun path ->
                let ex =
                  Tp_analysis.Certify.exhaustive ~path ~domains:3 p cfg
                in
                let cert =
                  Tp_analysis.Kcert.certify ~exhaustive:ex ~path p
                    ~config_name:(Scenario.slug kind) cfg
                in
                (cert, Tp_analysis.Kcert.report cert))
              paths)
          kinds)
      plats
  in
  let reports = List.map snd entries in
  (match certs_dir with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      List.iter
        (fun (c, _) ->
          let path =
            Filename.concat dir (Tp_analysis.Kcert.artifact_name c)
          in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (Tp_analysis.Kcert.to_json c)))
        entries;
      Printf.eprintf "tpsim: wrote %d certificates to %s\n%!"
        (List.length entries) dir);
  render ~json ~sarif ~out reports
    ~text:(fun ppf ->
      List.iter
        (fun (c, _) ->
          Format.fprintf ppf "%a" Tp_analysis.Kcert.pp c;
          Format.fprintf ppf "  digest: %s@.@." (Tp_analysis.Kcert.digest c))
        entries)
    ~json_doc:(fun () ->
      Printf.sprintf "[%s]"
        (String.concat ",\n"
           (List.map
              (fun (c, r) ->
                Printf.sprintf "{\"cert\":%s,\"report\":%s}"
                  (Tp_analysis.Kcert.to_json c)
                  (Tp_analysis.Diag.report_to_json r))
              entries)));
  report_summary ~what:"kernel certification report" out reports

let cmd_certify =
  (* Abstract-interpretation leakage certifier: sound per-channel
     upper bounds from the lint view (optionally tightened per guest
     program), cross-validated by exhaustive small-scope model
     checking. *)
  let run plats kinds paths domains json sarif out exhaustive fixtures kernel
      certs_dir verbose =
    setup_logging verbose;
    if kernel then certify_kernel plats kinds paths ~json ~sarif ~out ~certs_dir
    else begin
    let kinds =
      match kinds with
      | [] ->
          Scenario.
            [ Raw; Full_flush; Coloured_only; Protected_no_pad; Protected ]
      | ks -> ks
    in
    let entries =
      List.concat_map
        (fun p ->
          List.concat_map
            (fun kind ->
              let b = Scenario.boot ~domains kind p in
              let v = Tp_analysis.Lint.view_of_booted b in
              let subject =
                Printf.sprintf "certify %s %s" p.Tp_hw.Platform.name
                  (Scenario.name kind)
              in
              let cert = Tp_analysis.Certify.certify_view ~subject v in
              let ex =
                if exhaustive then
                  Some
                    (Tp_analysis.Certify.exhaustive ~domains:2 p
                       (Scenario.config kind p))
                else None
              in
              let report =
                let base = Tp_analysis.Certify.report cert in
                match ex with
                | None -> base
                | Some r ->
                    {
                      base with
                      Tp_analysis.Diag.findings =
                        base.Tp_analysis.Diag.findings
                        @ Tp_analysis.Certify.exhaustive_findings r
                        @ Tp_analysis.Certify.crosscheck cert r;
                    }
              in
              let fixture_entries =
                if not fixtures then []
                else
                  List.map
                    (fun fx ->
                      let c =
                        Tp_analysis.Certify.certify_fixture
                          ~subject:
                            (Printf.sprintf "%s %s" subject
                               fx.Tp_analysis.Ctcheck.fx_program
                                 .Tp_analysis.Ct_ir.p_name)
                          v fx
                      in
                      (c, None, Tp_analysis.Certify.report c))
                    Tp_analysis.Ctcheck.fixtures
              in
              ((cert, ex, report) :: fixture_entries))
            kinds)
        plats
    in
    let reports = List.map (fun (_, _, r) -> r) entries in
    let exhaustive_json = function
      | None -> "null"
      | Some r -> Tp_analysis.Certify.exhaustive_to_json r
    in
    render ~json ~sarif ~out reports
      ~text:(fun ppf ->
        List.iter
          (fun (c, ex, _) ->
            Format.fprintf ppf "%a" Tp_analysis.Certify.pp c;
            (match ex with
            | None -> ()
            | Some (r : Tp_analysis.Certify.exhaustive_result) -> (
                match r.ex_counterexample with
                | None ->
                    Format.fprintf ppf
                      "  exhaustive: PASS (%d schedules x %d secrets, \
                       horizon %d, on %s)@."
                      r.ex_schedules
                      (List.length r.ex_secrets)
                      r.ex_horizon r.ex_platform
                | Some cx ->
                    Format.fprintf ppf
                      "  exhaustive: FAIL -- schedule %s distinguishes \
                       secrets %d/%d at attacker turn %d, observation %d \
                       (%d vs %d cycles%s)@."
                      cx.cx_schedule cx.cx_secret_a cx.cx_secret_b
                      cx.cx_turn cx.cx_index cx.cx_obs_a cx.cx_obs_b
                      (if cx.cx_index = 0 then "; index 0 = turn timestamp"
                       else "")));
            Format.fprintf ppf "@.")
          entries)
      ~json_doc:(fun () ->
        Printf.sprintf "[%s]"
          (String.concat ",\n"
             (List.map
                (fun (c, ex, r) ->
                  Printf.sprintf
                    "{\"cert\":%s,\"report\":%s,\"exhaustive\":%s}"
                    (Tp_analysis.Certify.cert_to_json c)
                    (Tp_analysis.Diag.report_to_json r)
                    (exhaustive_json ex))
                entries)));
    report_summary ~what:"certification report" out reports
    end
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Abstract-interpretation leakage certifier: a sound per-channel \
          upper bound in bits (L1-D, L1-I, TLB, branch predictor, LLC, \
          plus pad timing) for each configuration, 0 under full time \
          protection; $(b,--exhaustive) cross-validates by enumerating \
          two-domain schedules on a shrunken machine and checking \
          observational determinism.  $(b,--kernel) certifies the \
          kernel's own lifecycle paths (switch, clone, destroy) \
          instead, with 3-domain cross-validation and content-digested \
          golden artifacts ($(b,--certs)).")
    Term.(
      const run $ platform_arg $ certify_configs_arg $ paths_arg $ domains_arg
      $ json_arg $ sarif_arg $ out_arg $ exhaustive_arg $ fixtures_arg
      $ kernel_arg $ certs_arg $ verbose_arg)

let no_replay_arg =
  let doc =
    "Disable record-once / replay-many sender slices and run every \
     trial slice live.  Replay is bit-identical to live execution by \
     construction, so flipping this flag must never change a result — \
     it exists for A/B debugging and for measuring the speedup."
  in
  Arg.(value & flag & info [ "no-replay" ] ~doc)

let socket_arg =
  let doc = "Unix-domain socket path of the campaign daemon." in
  Arg.(
    required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let store_arg =
  let doc =
    "Result-store directory (created as needed; fsck'd on open, so a \
     directory a crashed daemon left behind is fine)."
  in
  Arg.(required & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let event_log_arg =
  let doc =
    "Append a structured JSONL event log (daemon lifecycle, job \
     received/done/rejected, dropped-span warnings and leakage-drift \
     alerts) to $(docv), rotated at about 1 MiB with 3 generations \
     kept."
  in
  Arg.(
    value & opt (some string) None & info [ "event-log" ] ~docv:"FILE" ~doc)

let cmd_serve =
  let run socket store jobs event_log verbose =
    match setup_jobs jobs None with
    | Error msg -> `Error (false, msg)
    | Ok () ->
        setup_logging verbose;
        let elog = Option.map Tp_obs.Eventlog.open_ event_log in
        Fun.protect
          ~finally:(fun () -> Option.iter Tp_obs.Eventlog.close elog)
          (fun () ->
            Tp_serve.Serve.run ~socket ~store_dir:store
              ~jobs:(Tp_par.Pool.default_jobs ())
              ~log:(fun s -> Printf.eprintf "tpsim-serve: %s\n%!" s)
              ?event_log:elog ());
        `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Campaign daemon: accept JSON jobs over a Unix-domain socket, \
          shard trials across worker domains, memoize every trial in a \
          crash-safe content-addressed result store, and stream \
          progress to the submitting client.  Survives kill -9: a \
          restarted daemon resumes mid-sweep bit-identically.  Exposes \
          campaign telemetry: any client can scrape an OpenMetrics \
          snapshot with the metrics request (see $(b,tpsim top)), and \
          $(b,--event-log) records a rotated JSONL lifecycle stream.")
    Term.(
      ret
        (const run $ socket_arg $ store_arg $ jobs_arg $ event_log_arg
       $ verbose_arg))

let cmd_sweep =
  let strings_arg names ~default ~doc ~docv =
    Arg.(value & opt_all string default & info names ~docv ~doc)
  in
  let platforms_arg =
    strings_arg [ "p"; "platform" ] ~default:[ "haswell" ] ~docv:"PLATFORM"
      ~doc:
        "Platform slug (repeatable): $(b,haswell), $(b,sabre) or \
         $(b,armv8)."
  in
  let configs_arg =
    strings_arg [ "c"; "config" ] ~default:[ "protected" ] ~docv:"CONFIG"
      ~doc:
        "Scenario slug (repeatable): $(b,raw), $(b,full-flush), \
         $(b,protected), $(b,coloured-only), $(b,no-pad), \
         $(b,no-prefetcher) or $(b,cat-llc)."
  in
  let channels_arg =
    strings_arg [ "channel" ] ~default:[ "l1d" ] ~docv:"CHANNEL"
      ~doc:
        "Channel slug (repeatable): $(b,l1d), $(b,l1i), $(b,tlb), \
         $(b,btb), $(b,bhb), $(b,l2), $(b,kernel) or $(b,flush)."
  in
  let trials_arg =
    Arg.(
      value & opt int 1
      & info [ "trials" ] ~docv:"N" ~doc:"Trials per matrix cell.")
  in
  let samples_arg =
    Arg.(
      value & opt int 300
      & info [ "samples" ] ~docv:"N" ~doc:"Harness samples per trial.")
  in
  let cycle_budget_arg =
    Arg.(
      value & opt (some int) None
      & info [ "cycle-budget" ] ~docv:"CYCLES"
          ~doc:
            "Deterministic simulated-cycle budget per trial (part of \
             the cache key); an exhausted trial is kept, marked \
             degraded.")
  in
  let trial_timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "trial-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock timeout per trial attempt.  Timed-out trials \
             are reported failed and recomputed on resubmission — \
             wall time is host-dependent, so they are never cached.")
  in
  let wall_budget_arg =
    Arg.(
      value & opt (some float) None
      & info [ "wall-budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget per job; when exhausted the job \
             degrades gracefully, returning everything computed so \
             far.")
  in
  let retries_arg =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts per faulted trial (exponential backoff \
             between attempts).")
  in
  let run socket platforms configs channels trials seed samples cycle_budget
      trial_timeout wall_budget retries json no_replay =
    let failures = ref 0 in
    let batches =
      List.concat_map
        (fun p -> List.map (fun c -> (p, c)) configs)
        platforms
    in
    let results =
      List.filter_map
        (fun (p, c) ->
          let job =
            Tp_serve.Protocol.job
              ~id:(Printf.sprintf "sweep-%s-%s" p c)
              ~platforms:[ p ] ~configs:[ c ] ~channels ~trials ~seed
              ~samples ?trial_cycle_budget:cycle_budget
              ?trial_timeout_s:trial_timeout ?wall_budget_s:wall_budget
              ~max_retries:retries ~replay:(not no_replay) ()
          in
          match
            Tp_serve.Client.submit ~socket
              ~on_progress:(fun pr ->
                Printf.eprintf
                  "tpsim-sweep: %s %d/%d (%d cached, %d failed, %d \
                   retried)%s\n\
                   %!"
                  job.Tp_serve.Protocol.j_id pr.Tp_serve.Protocol.p_done
                  pr.Tp_serve.Protocol.p_total pr.Tp_serve.Protocol.p_cached
                  pr.Tp_serve.Protocol.p_failed
                  pr.Tp_serve.Protocol.p_retried
                  (if pr.Tp_serve.Protocol.p_dropped_spans > 0 then
                     Printf.sprintf
                       " [warning: %d trace spans dropped daemon-side]"
                       pr.Tp_serve.Protocol.p_dropped_spans
                   else ""))
              job
          with
          | Ok r ->
              if r.Tp_serve.Protocol.r_status = Tp_serve.Protocol.Failed then
                incr failures;
              Some r
          | Error why ->
              Printf.eprintf "tpsim-sweep: %s: %s\n%!"
                job.Tp_serve.Protocol.j_id why;
              incr failures;
              None)
        batches
    in
    if json then
      print_endline
        (Tp_util.Json.to_string
           (Tp_util.Json.Arr
              (List.map Tp_serve.Protocol.result_to_json results)))
    else
      List.iter
        (fun (r : Tp_serve.Protocol.job_result) ->
          Printf.printf
            "%s: %s — %d trials (%d computed, %d cached, %d degraded, %d \
             failed, %d retried), digest %s%s\n"
            r.Tp_serve.Protocol.r_id
            (Tp_serve.Protocol.status_name r.Tp_serve.Protocol.r_status)
            r.Tp_serve.Protocol.r_total r.Tp_serve.Protocol.r_computed
            r.Tp_serve.Protocol.r_cached r.Tp_serve.Protocol.r_degraded
            r.Tp_serve.Protocol.r_failed r.Tp_serve.Protocol.r_retried
            r.Tp_serve.Protocol.r_digest
            (match r.Tp_serve.Protocol.r_reason with
            | None -> ""
            | Some why -> " (" ^ why ^ ")");
          List.iter
            (fun (t : Tp_serve.Protocol.trial) ->
              Printf.printf "  %s %s %s#%d: %s M=%.4f M0=%.4f n=%d%s%s%s\n"
                t.Tp_serve.Protocol.t_platform t.Tp_serve.Protocol.t_config
                t.Tp_serve.Protocol.t_channel t.Tp_serve.Protocol.t_trial
                t.Tp_serve.Protocol.t_verdict t.Tp_serve.Protocol.t_mi_bits
                t.Tp_serve.Protocol.t_m0_bits t.Tp_serve.Protocol.t_n
                (if t.Tp_serve.Protocol.t_cached then " [cached]" else "")
                (if t.Tp_serve.Protocol.t_retries > 0 then
                   Printf.sprintf " [%d retries]"
                     t.Tp_serve.Protocol.t_retries
                 else "")
                (match t.Tp_serve.Protocol.t_degraded_reason with
                | None -> ""
                | Some why -> " [" ^ why ^ "]"))
            r.Tp_serve.Protocol.r_trials)
        results;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Submit the platform x config x channel x trial matrix to a \
          running campaign daemon in per-(platform, config) batches and \
          render the streamed results.  Resubmitting a finished sweep \
          is answered entirely from the daemon's result store.")
    Term.(
      const run $ socket_arg $ platforms_arg $ configs_arg $ channels_arg
      $ trials_arg $ seed_arg $ samples_arg $ cycle_budget_arg
      $ trial_timeout_arg $ wall_budget_arg $ retries_arg $ json_arg
      $ no_replay_arg)

let cmd_top =
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between scrapes of the daemon's metrics request.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render a single frame and exit (no screen clearing).")
  in
  let raw_arg =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Print the raw OpenMetrics exposition text instead of the \
             dashboard (pipe it to a file and any Prometheus tooling \
             can ingest it).")
  in
  let run socket interval once raw =
    match
      Tp_serve.Top.run ~socket ~interval
        ?frames:(if once then Some 1 else None)
        ~raw ()
    with
    | Ok () -> `Ok ()
    | Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running campaign daemon: scrape the \
          metrics request every few seconds and render trial \
          throughput, latency percentiles (p50/p90/p99/max from the \
          exposition histograms), store hit rate, per-domain pool \
          utilisation and the leakage-drift monitor (measured MI vs \
          the certified bound recorded with each trial).")
    Term.(ret (const run $ socket_arg $ interval_arg $ once_arg $ raw_arg))

let cmds =
  [
    cmd_platforms;
    cmd_serve;
    cmd_sweep;
    cmd_top;
    cmd_lint;
    cmd_ctcheck;
    cmd_certify;
  ]
  @ List.map (fun (name, doc, run) -> mk_cmd name doc run) experiments
  @ [
      mk_cmd "stats"
        "Performance counters and pad-slack profile of a switching workload."
        stats;
      mk_cmd "all" "Run the complete evaluation." all;
    ]

let () =
  let info =
    Cmd.info "tpsim" ~version:"1.0"
      ~doc:
        "Reproduction of 'Time Protection: The Missing OS Abstraction' \
         (EuroSys 2019) on a simulated microarchitecture."
      ~man:
        [
          `S Manpage.s_common_options;
          `P
            "$(b,--trace) $(i,FILE): record a Chrome trace (spans for \
             domain switches, flushes, clone/destroy; instants for \
             harness checkpoints and injected faults) and write it as \
             Perfetto-loadable JSON on exit.  1 trace microsecond = 1 \
             simulated cycle.";
          `P
            "$(b,--counters): enable the microarchitectural performance \
             counters and print every counter set on exit.";
          `P
            "$(b,--metrics) $(i,FILE): enable the counters and dump them \
             as JSONL on exit.";
          `P
            "These three are global: they may appear before or after the \
             subcommand.";
        ]
  in
  let argv = strip_obs_argv Sys.argv in
  setup_obs ();
  at_exit finish_obs;
  exit (Cmd.eval ~argv (Cmd.group info cmds))
