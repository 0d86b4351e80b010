(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5), then runs Bechamel microbenchmarks of the
   library's core operations.

   Usage: main.exe [quick|full] [haswell|sabre|both] [seed]
   Defaults: quick, both, seed 1. *)

open Tp_core

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '#')

let run_platform q ~seed p =
  section
    (Printf.sprintf "Platform: %s (%s)" p.Tp_hw.Platform.name
       (match p.Tp_hw.Platform.arch with
       | Tp_hw.Platform.X86 -> "x86"
       | Tp_hw.Platform.Arm -> "Arm v7"));
  Format.printf "%a@.@." Tp_hw.Platform.pp p;

  section "Table 2: worst-case cache flush costs";
  Report.table2 (Exp_table2.run p);

  section "Figure 3: kernel-image covert channel";
  Report.fig3 (Exp_fig3.run q ~seed p);

  section "Table 3: intra-core timing channels";
  Report.table3 (Exp_table3.run q ~seed:(seed + 10) p);

  section "Figure 4: cross-core LLC side channel (ElGamal)";
  Report.fig4 (Exp_fig4.run q ~seed:(seed + 20) p);

  section "Figure 5 + Table 4: cache-flush latency channel";
  let t4 = Exp_table4.run q ~seed:(seed + 30) p in
  Report.fig5 t4;
  Report.table4 t4;

  section "Figure 6: timer-interrupt channel";
  Report.fig6 (Exp_fig6.run q ~seed:(seed + 40) p);

  section "Table 5: IPC microbenchmark";
  Report.table5 (Exp_table5.run q p);

  section "Table 6: domain-switch cost";
  Report.table6 (Exp_table6.run q p);

  section "Table 7: kernel clone and destruction cost";
  Report.table7 (Exp_table7.run q p);

  section "Figure 7: Splash-2 under cache colouring";
  Report.fig7 (Exp_fig7.run_fig7 q ~seed:(seed + 50) p);

  section "Table 8: time-shared Splash-2 with time protection";
  Report.table8 (Exp_fig7.run_table8 q ~seed:(seed + 60) p);

  section "Beyond the paper: interconnect (bus) covert channel";
  let rng = Tp_util.Rng.create ~seed:(seed + 70) in
  let samples = Quality.samples q / 2 in
  let open_chan =
    Tp_attacks.Bus_chan.run
      (Scenario.boot Scenario.Protected p)
      ~samples ~partitioned:false ~rng
  in
  let closed_chan =
    Tp_attacks.Bus_chan.run
      (Scenario.boot Scenario.Protected p)
      ~samples ~partitioned:true ~rng
  in
  Format.printf
    "concurrent cross-core bus channel, under full time protection: %a@."
    Tp_channel.Leakage.pp_result open_chan;
  Format.printf
    "same, with the hypothetical hardware bandwidth partition:      %a@.@."
    Tp_channel.Leakage.pp_result closed_chan;
  let mba =
    Tp_attacks.Bus_chan.run_mode
      (Scenario.boot Scenario.Protected p)
      ~samples ~mode:(Tp_hw.Interconnect.Mba 0.4) ~rng
  in
  Format.printf
    "with Intel-MBA-style approximate throttling (40%%):          %a@."
    Tp_channel.Leakage.pp_result mba;
  Format.printf
    "(time protection cannot close this channel, and MBA's approximate \
     enforcement does not either [footnote 5] — the paper's argument for \
     a new hardware-software contract, Sec. 6.1)@.";

  section "Beyond the paper: DRAM row-buffer channel (taxonomy Sec. 2.2)";
  let open Tp_kernel in
  let run_dram config ~close =
    let b = Tp_kernel.Boot.boot ~platform:p ~config ~domains:2 () in
    let rng = Tp_util.Rng.create ~seed:(seed + 80) in
    Tp_attacks.Dram_chan.run b ~samples:(Quality.samples q / 2)
      ~close_rows_on_switch:close ~rng
  in
  Format.printf "raw:                                %a@."
    Tp_channel.Leakage.pp_result
    (run_dram Config.raw ~close:false);
  Format.printf "full time protection:               %a@."
    Tp_channel.Leakage.pp_result
    (run_dram (Config.protected_ p) ~close:false);
  Format.printf "+ hypothetical precharge-on-switch: %a@."
    Tp_channel.Leakage.pp_result
    (run_dram
       { (Config.protected_ p) with Config.close_dram_rows = true }
       ~close:true);
  Format.printf
    "(row-buffer state is outside the architected flush set: another \
     instance of the incomplete hardware-software contract)@.";

  section "Beyond the paper: gang scheduling (Sec. 3.1.1)";
  let run_cosched placement =
    let b = Scenario.boot Scenario.Protected p in
    let sender, receiver = Tp_attacks.Cosched_chan.prepare b in
    let spec =
      {
        (Tp_attacks.Harness.default_spec p) with
        Tp_attacks.Harness.samples = Quality.samples q / 3;
        symbols = Tp_attacks.Cosched_chan.symbols;
      }
    in
    let rng = Tp_util.Rng.create ~seed:(seed + 90) in
    let r =
      Tp_attacks.Harness.run_pair_result ~placement b ~sender ~receiver spec ~rng
    in
    Tp_channel.Leakage.test ~rng r.data
  in
  Format.printf "cross-core bandwidth channel, free-running: %a@."
    Tp_channel.Leakage.pp_result (run_cosched Tp_attacks.Harness.Concurrent);
  Format.printf "same, domains gang-scheduled:              %a@."
    Tp_channel.Leakage.pp_result (run_cosched Tp_attacks.Harness.Coscheduled);
  Format.printf
    "(with gang scheduling no two domains ever execute concurrently, so \
     concurrent-access channels vanish by construction)@.";

  section "Beyond the paper: Intel CAT way-partitioning (Sec. 2.3)";
  let rng = Tp_util.Rng.create ~seed:(seed + 100) in
  (match
     Tp_attacks.Crypto.run (Scenario.boot Scenario.Cat_llc p) ~key_bits:48 ~rng
   with
  | Some t when Array.exists (fun a -> a > 0) t.Tp_attacks.Crypto.activity ->
      Format.printf "LLC attack under CAT: still open (unexpected)@."
  | Some _ | None ->
      Format.printf "cross-core LLC side channel vs ElGamal: closed by CAT@.");
  let l1 =
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
    Tp_channel.Leakage.test ~rng r.data
  in
  Format.printf "but the on-core L1-D channel under CAT alone: %a@."
    Tp_channel.Leakage.pp_result l1;
  Format.printf
    "(CAT partitions only the LLC — the paper's case for mandatory \
     kernel-level time protection)@.";

  section "Beyond the paper: Bell-LaPadula padding policy (Sec. 4.3)";
  let mls = Mls.demo ~samples:(Quality.samples q / 2) ~seed:(seed + 110) p in
  Format.printf "High -> Low (forbidden):   %a@." Tp_channel.Leakage.pp_result
    mls.Mls.high_to_low;
  Format.printf "Low  -> High (authorised): %a@." Tp_channel.Leakage.pp_result
    mls.Mls.low_to_high;
  Format.printf
    "(only High's kernel pads: the policy lives entirely in per-image pad \
     attributes)@.";

  section "Beyond the paper: empirical pad calibration (Sec. 4.3)";
  let c = Calibrate.switch_pad p in
  Format.printf
    "worst observed unpadded switch: %d cycles over %d adversarial trials;@."
    c.Calibrate.worst_observed_cycles c.Calibrate.trials;
  Format.printf "calibrated pad: %.1f us (+25%% margin); validates: %b@."
    c.Calibrate.pad_us
    (Calibrate.covers c p ~trials:8);

  section "Observability: kernel counter totals over this platform's run";
  let kernel_sets =
    List.filter_map Tp_obs.Counter.find
      [ "kernel.switch"; "kernel.clone"; "kernel.sched" ]
  in
  Tp_util.Table.print (Tp_obs.Counter.table kernel_sets);
  (* Per-platform window: the next platform starts from zero. *)
  List.iter Tp_obs.Counter.reset kernel_sets

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the library's own operations.           *)

let microbenchmarks () =
  let open Bechamel in
  let open Toolkit in
  section "Bechamel microbenchmarks (library operation costs, host ns)";
  let p = Tp_hw.Platform.haswell in
  (* Pre-built state reused across iterations. *)
  let machine = Tp_hw.Machine.create p in
  let pos = ref 0 in
  let bench_cache_access =
    Test.make ~name:"machine.access (hit path)"
      (Staged.stage (fun () ->
           pos := (!pos + 64) land 0x7FFF;
           ignore
             (Tp_hw.Machine.access machine ~core:0 ~asid:1 ~vaddr:!pos
                ~paddr:!pos ~kind:Tp_hw.Defs.Read ())))
  in
  let b = Scenario.boot Scenario.Protected p in
  let sys = b.Tp_kernel.Boot.sys in
  let d0 = b.Tp_kernel.Boot.domains.(0) and d1 = b.Tp_kernel.Boot.domains.(1) in
  let t0 = Tp_kernel.Boot.spawn b d0 (fun _ -> ()) in
  let t1 = Tp_kernel.Boot.spawn b d1 (fun _ -> ()) in
  Tp_kernel.Sched.remove (Tp_kernel.System.sched sys) ~core:0 t0;
  Tp_kernel.Sched.remove (Tp_kernel.System.sched sys) ~core:0 t1;
  let flip = ref false in
  let bench_domain_switch =
    Test.make ~name:"domain switch (protected, incl. flushes)"
      (Staged.stage (fun () ->
           flip := not !flip;
           ignore
             (Tp_kernel.Domain_switch.switch sys ~core:0
                ~to_:(if !flip then t1 else t0))))
  in
  let ep = Tp_kernel.Boot.new_endpoint b d0 in
  let ta = Tp_kernel.Boot.spawn b d0 (fun _ -> ()) in
  let tb = Tp_kernel.Boot.spawn b d0 (fun _ -> ()) in
  Tp_kernel.Sched.remove (Tp_kernel.System.sched sys) ~core:0 ta;
  Tp_kernel.Sched.remove (Tp_kernel.System.sched sys) ~core:0 tb;
  let dir = ref false in
  let bench_ipc =
    Test.make ~name:"IPC one-way fastpath"
      (Staged.stage (fun () ->
           dir := not !dir;
           let from, to_ = if !dir then (ta, tb) else (tb, ta) in
           ignore (Tp_kernel.Ipc.one_way sys ~core:0 ~ep ~from ~to_)))
  in
  let rng = Tp_util.Rng.create ~seed:7 in
  let mi_samples =
    {
      Tp_channel.Mi.input = Array.init 512 (fun i -> i land 3);
      output =
        Array.init 512 (fun i ->
            float_of_int (i land 3) +. Tp_util.Rng.float rng 1.0);
    }
  in
  let bench_mi =
    Test.make ~name:"MI estimate (512 samples, 4 symbols)"
      (Staged.stage (fun () -> ignore (Tp_channel.Mi.estimate mi_samples)))
  in
  (* The sweep-wide cell shape: 40 samples over 16 symbols, so most
     groups hold two or three samples. *)
  let leak_samples =
    {
      Tp_channel.Mi.input = Array.init 40 (fun _ -> Tp_util.Rng.int rng 16);
      output =
        Array.init 40 (fun _ ->
            Float.round (Tp_util.Rng.gaussian rng ~mu:300.0 ~sigma:8.0));
    }
  in
  let bench_leakage =
    Test.make ~name:"Leakage test (40 samples, 16 symbols)"
      (Staged.stage (fun () ->
           ignore
             (Tp_channel.Leakage.test ~rng:(Tp_util.Rng.create ~seed:11)
                leak_samples)))
  in
  let kde_xs = Array.init 1000 (fun i -> float_of_int (i mod 97)) in
  let bench_kde =
    Test.make ~name:"KDE (1000 samples, 512-point grid)"
      (Staged.stage (fun () ->
           ignore
             (Tp_channel.Kde.estimate
                { Tp_channel.Kde.lo = 0.0; hi = 100.0; points = 512 }
                kde_xs)))
  in
  let tests =
    [
      bench_cache_access;
      bench_domain_switch;
      bench_ipc;
      bench_mi;
      bench_leakage;
      bench_kde;
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let table =
    Tp_util.Table.create ~title:"Library operation costs"
      ~headers:[ "operation"; "ns/op" ]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (v :: _) -> Printf.sprintf "%.0f" v
            | _ -> "n/a"
          in
          Tp_util.Table.add_row table [ Test.Elt.name elt; ns ])
        (Test.elements test))
    tests;
  Tp_util.Table.print table

let () =
  let arg n default = if Array.length Sys.argv > n then Sys.argv.(n) else default in
  let q =
    match Quality.of_string (arg 1 "quick") with
    | Some q -> q
    | None -> failwith "quality must be quick or full"
  in
  let plats =
    match arg 2 "both" with
    | "haswell" -> [ Tp_hw.Platform.haswell ]
    | "sabre" -> [ Tp_hw.Platform.sabre ]
    | "armv8" -> [ Tp_hw.Platform.armv8 ]
    | "both" -> [ Tp_hw.Platform.haswell; Tp_hw.Platform.sabre ]
    | "all" -> Tp_hw.Platform.all
    | s -> failwith ("unknown platform " ^ s)
  in
  let seed = int_of_string (arg 3 "1") in
  (* Counters are observability-only (never read by the model), so the
     bench enables them unconditionally for its summary sections. *)
  Tp_obs.Ctl.set_counters true;
  Format.printf
    "Time Protection (EuroSys 2019) — full evaluation reproduction@.";
  Format.printf "quality=%s seed=%d@."
    (match q with Quality.Quick -> "quick" | Quality.Full -> "full")
    seed;
  List.iter (run_platform q ~seed) plats;
  microbenchmarks ();
  Format.printf "@.Done.@."
