(* Tests for the experiment layer: scenario construction and the
   structural/shape properties of each experiment driver. *)

open Tp_core

let haswell = Tp_hw.Platform.haswell
let sabre = Tp_hw.Platform.sabre

let test_scenario_configs () =
  let open Tp_kernel in
  let raw = Scenario.config Scenario.Raw haswell in
  Alcotest.(check bool) "raw has nothing on" true
    ((not raw.Config.colour_user) && (not raw.Config.flush_l1)
    && raw.Config.pad_cycles = 0);
  let prot = Scenario.config Scenario.Protected haswell in
  Alcotest.(check bool) "protected full set" true
    (prot.Config.colour_user && prot.Config.clone_kernel && prot.Config.flush_l1
   && prot.Config.flush_tlb && prot.Config.flush_bp && prot.Config.partition_irqs
   && prot.Config.prefetch_shared && prot.Config.pad_cycles > 0);
  let ff = Scenario.config Scenario.Full_flush haswell in
  Alcotest.(check bool) "full flush: flush everything, no colouring" true
    (ff.Config.flush_llc && ff.Config.disable_prefetcher
    && (not ff.Config.colour_user)
    && not ff.Config.clone_kernel);
  let co = Scenario.config Scenario.Coloured_only haswell in
  Alcotest.(check bool) "coloured-only: colours but shared kernel" true
    (co.Config.colour_user && not co.Config.clone_kernel);
  let nopad = Scenario.config Scenario.Protected_no_pad haswell in
  Alcotest.(check int) "no-pad ablation" 0 nopad.Config.pad_cycles

let test_scenario_boot_shapes () =
  let b = Scenario.boot ~domains:3 Scenario.Protected sabre in
  Alcotest.(check int) "three domains" 3 (Array.length b.Tp_kernel.Boot.domains);
  (* All pairwise disjoint colours. *)
  let open Tp_kernel in
  Array.iteri
    (fun i di ->
      Array.iteri
        (fun j dj ->
          if i < j then
            Alcotest.(check bool) "pairwise disjoint" true
              (Colour.disjoint di.Boot.dom_colours dj.Boot.dom_colours))
        b.Boot.domains)
    b.Boot.domains

let test_quality_parsing () =
  Alcotest.(check bool) "quick" true (Quality.of_string "quick" = Some Quality.Quick);
  Alcotest.(check bool) "full" true (Quality.of_string "full" = Some Quality.Full);
  Alcotest.(check bool) "junk" true (Quality.of_string "junk" = None);
  Alcotest.(check bool) "full > quick samples" true
    (Quality.samples Quality.Full > Quality.samples Quality.Quick)

let test_table2_shape () =
  let r = Exp_table2.run haswell in
  Alcotest.(check int) "two rows" 2 (List.length r.Exp_table2.rows);
  match r.Exp_table2.rows with
  | [ l1; full ] ->
      Alcotest.(check bool) "all costs positive" true
        (l1.Exp_table2.direct_us > 0.0 && full.Exp_table2.direct_us > 0.0);
      (* The paper's central cost comparison: a full flush is far more
         expensive than an L1-only flush, directly and indirectly. *)
      Alcotest.(check bool) "full >> L1 direct" true
        (full.Exp_table2.direct_us > 4.0 *. l1.Exp_table2.direct_us);
      Alcotest.(check bool) "full total >> L1 total" true
        (full.Exp_table2.total_us > 4.0 *. l1.Exp_table2.total_us)
  | _ -> Alcotest.fail "expected exactly two rows"

let test_table5_shape () =
  let r = Exp_table5.run Quality.Quick sabre in
  Alcotest.(check int) "four variants" 4 (List.length r.Exp_table5.rows);
  let find v =
    List.find (fun row -> row.Exp_table5.variant = v) r.Exp_table5.rows
  in
  Alcotest.(check (float 1e-9)) "original is the baseline" 0.0
    (find "original").Exp_table5.slowdown_pct;
  (* The paper's Arm result: colour-ready IPC is significantly more
     expensive (TLB pressure from non-global kernel mappings). *)
  Alcotest.(check bool) "Arm colour-ready slowdown > 5%" true
    ((find "colour-ready").Exp_table5.slowdown_pct > 5.0);
  (* x86 does not pay this penalty (large associative TLBs). *)
  let rx = Exp_table5.run Quality.Quick haswell in
  let find_x v =
    List.find (fun row -> row.Exp_table5.variant = v) rx.Exp_table5.rows
  in
  Alcotest.(check bool) "x86 colour-ready cheap (< 3%)" true
    (Float.abs (find_x "colour-ready").Exp_table5.slowdown_pct < 3.0)

let test_armv8_prediction () =
  (* §5.4.1: "Arm v8 cores have 4-way associativity, so we expect this
     overhead to be significantly reduced on the more recent
     architecture version." *)
  let overhead p =
    let r = Exp_table5.run Quality.Quick p in
    (List.find (fun row -> row.Exp_table5.variant = "colour-ready")
       r.Exp_table5.rows)
      .Exp_table5.slowdown_pct
  in
  let v7 = overhead sabre in
  let v8 = overhead Tp_hw.Platform.armv8 in
  Alcotest.(check bool)
    (Printf.sprintf "v8 colour-ready overhead (%.1f%%) << v7 (%.1f%%)" v8 v7)
    true
    (v8 < v7 /. 3.0)

let test_table6_shape () =
  let r = Exp_table6.run Quality.Quick haswell in
  let row m = List.find (fun x -> x.Exp_table6.mode = m) r.Exp_table6.rows in
  let avg m =
    let vs = List.map snd (row m).Exp_table6.us_by_workload in
    List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)
  in
  Alcotest.(check bool) "raw is sub-microsecond-ish" true (avg "Raw" < 2.0);
  Alcotest.(check bool) "protected well below full flush" true
    (avg "Protected" *. 4.0 < avg "Full flush");
  Alcotest.(check bool) "protected costs real time" true (avg "Protected" > 1.0);
  (* The exact medians: the simulation is deterministic, so any change
     to what a measured slice or switch does moves one of them. *)
  let pinned =
    [
      ( "Raw",
        [ 0.1; 0.19470588235294117; 0.195; 0.33705882352941174;
          0.4111764705882353 ] );
      ( "Full flush",
        [ 202.88588235294117; 204.42176470588234; 202.91235294117647;
          204.48911764705883; 204.48029411764705 ] );
      ( "Protected",
        [ 9.985; 11.52970588235294; 9.985; 11.696470588235295;
          12.096176470588235 ] );
    ]
  in
  List.iter
    (fun (m, us) ->
      Alcotest.(check (list (pair string (float 0.0))))
        (m ^ " medians")
        (List.combine [ "Idle"; "L1-D"; "L1-I"; "L2"; "L3" ] us)
        (row m).Exp_table6.us_by_workload)
    pinned

let test_table7_shape () =
  let r = Exp_table7.run Quality.Quick haswell in
  Alcotest.(check bool) "destroy much cheaper than clone" true
    (r.Exp_table7.destroy_us *. 10.0 < r.Exp_table7.clone_us);
  Alcotest.(check bool) "clone much cheaper than fork+exec" true
    (r.Exp_table7.clone_us *. 2.0 < r.Exp_table7.fork_exec_us)

let test_fig7_cloning_is_cheap () =
  let r =
    Exp_fig7.run_fig7 ~workloads:[ "waternsquared"; "raytrace" ] Quality.Quick
      ~seed:3 haswell
  in
  List.iter
    (fun (row : Exp_fig7.fig7_row) ->
      Alcotest.(check bool)
        (row.Exp_fig7.workload ^ ": 100% clone within 1.5% of baseline")
        true
        (Float.abs row.Exp_fig7.clone_100 < 1.5))
    r.Exp_fig7.rows;
  (* raytrace must hurt more at 50% than at 75%. *)
  let rt =
    List.find (fun (x : Exp_fig7.fig7_row) -> x.Exp_fig7.workload = "raytrace")
      r.Exp_fig7.rows
  in
  Alcotest.(check bool) "more colours, less pain" true
    (rt.Exp_fig7.base_50 > rt.Exp_fig7.base_75)

let test_table8_pad_costs_more () =
  let r =
    Exp_fig7.run_table8 ~workloads:[ "lu"; "radix" ] Quality.Quick ~seed:3
      haswell
  in
  List.iter
    (fun (row : Exp_fig7.table8_row) ->
      Alcotest.(check bool)
        (row.Exp_fig7.workload ^ ": padding adds overhead")
        true
        (row.Exp_fig7.pad_pct > row.Exp_fig7.no_pad_pct))
    r.Exp_fig7.rows

let test_calibrate () =
  (* The worst unpadded switch over the adversarial workloads, and the
     pad 25 % above it, pinned on every platform. *)
  List.iter
    (fun (p, worst, pad) ->
      let c = Calibrate.switch_pad ~trials_per_workload:8 p in
      let name = p.Tp_hw.Platform.name in
      Alcotest.(check int) (name ^ " worst") worst
        c.Calibrate.worst_observed_cycles;
      Alcotest.(check int) (name ^ " pad") pad c.Calibrate.pad_cycles;
      Alcotest.(check int) (name ^ " trials") 32 c.Calibrate.trials;
      if p == haswell then
        Alcotest.(check bool) "covers every Table 6 receiver, L3 included" true
          (Calibrate.covers c p ~trials:5))
    [
      (haswell, 55435, 69293);
      (sabre, 40238, 50297);
      (Tp_hw.Platform.armv8, 20388, 25485);
    ]

let test_calibrated_pad_closes_flush_channel () =
  let p = haswell in
  let c = Calibrate.switch_pad ~trials_per_workload:8 p in
  let b = Scenario.boot Scenario.Protected_no_pad p in
  Array.iter
    (fun dom ->
      Tp_kernel.Clone.set_pad b.Tp_kernel.Boot.sys
        ~image:dom.Tp_kernel.Boot.dom_kernel_cap ~cycles:c.Calibrate.pad_cycles)
    b.Tp_kernel.Boot.domains;
  let sender, receiver =
    Tp_attacks.Flush_chan.prepare Tp_attacks.Flush_chan.Offline b
  in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples = 250;
      symbols = Tp_attacks.Flush_chan.symbols;
    }
  in
  let rng = Tp_util.Rng.create ~seed:31 in
  let hr = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  let r = Tp_channel.Leakage.test ~rng hr.Tp_attacks.Harness.data in
  Alcotest.(check bool) "calibrated pad closes the channel" true
    (r.Tp_channel.Leakage.verdict <> Tp_channel.Leakage.Leak)

let test_mls_policy () =
  (* §4.3's Bell-LaPadula example: High→Low (forbidden) closed by the
     High kernel's pad; Low→High (authorised) open and unpaid-for. *)
  let r = Mls.demo ~samples:300 ~seed:9 haswell in
  Alcotest.(check bool) "forbidden flow closed" true
    (r.Mls.high_to_low.Tp_channel.Leakage.verdict <> Tp_channel.Leakage.Leak);
  Alcotest.(check bool) "authorised flow flows" true
    (r.Mls.low_to_high.Tp_channel.Leakage.verdict = Tp_channel.Leakage.Leak)

let test_mls_padded_fraction () =
  Alcotest.(check (float 1e-9)) "2-level: half pad" 0.5
    (Mls.padded_fraction ~labels:[| 0; 1 |]);
  Alcotest.(check (float 1e-9)) "uniform: nobody pads" 0.0
    (Mls.padded_fraction ~labels:[| 3; 3; 3 |]);
  Alcotest.(check (float 1e-9)) "3 levels: two thirds pad" (2.0 /. 3.0)
    (Mls.padded_fraction ~labels:[| 0; 1; 2 |])

let test_fig4_driver () =
  let r = Exp_fig4.run Quality.Quick ~seed:21 haswell in
  Alcotest.(check bool) "raw recovery high" true (r.Exp_fig4.raw_recovery > 0.9);
  match r.Exp_fig4.protected_trace with
  | None -> ()
  | Some t ->
      Alcotest.(check bool) "protected sees nothing" false
        (Array.exists (fun a -> a > 0) t.Tp_attacks.Crypto.activity)

let suite =
  [
    Alcotest.test_case "scenario configs" `Quick test_scenario_configs;
    Alcotest.test_case "scenario boot shapes" `Quick test_scenario_boot_shapes;
    Alcotest.test_case "quality parsing" `Quick test_quality_parsing;
    Alcotest.test_case "table2 shape" `Quick test_table2_shape;
    Alcotest.test_case "table5 shape" `Quick test_table5_shape;
    Alcotest.test_case "armv8 TLB prediction (5.4.1)" `Quick test_armv8_prediction;
    Alcotest.test_case "table7 shape" `Quick test_table7_shape;
    Alcotest.test_case "fig7 cloning cheap" `Slow test_fig7_cloning_is_cheap;
    Alcotest.test_case "table8 pad costs more" `Slow test_table8_pad_costs_more;
    Alcotest.test_case "calibrate pad" `Slow test_calibrate;
    Alcotest.test_case "calibrated pad closes channel" `Slow
      test_calibrated_pad_closes_flush_channel;
    Alcotest.test_case "mls policy (4.3)" `Slow test_mls_policy;
    Alcotest.test_case "mls padded fraction" `Quick test_mls_padded_fraction;
    Alcotest.test_case "fig4 driver" `Quick test_fig4_driver;
  ]

(* "table6 shape" alone takes about as long as the rest of the suite,
   so it runs as a shard of its own (see test_main.ml). *)
let table6_suite = [ Alcotest.test_case "table6 shape" `Slow test_table6_shape ]
