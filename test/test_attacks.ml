(* Integration tests: every attack opens its channel on the raw system
   and time protection closes it.  These are the end-to-end properties
   the whole system exists to demonstrate, so they are tested directly
   (with sample sizes kept small enough for CI). *)

open Tp_core
open Tp_kernel

let haswell = Tp_hw.Platform.haswell
let sabre = Tp_hw.Platform.sabre

let is_leak r = r.Tp_channel.Leakage.verdict = Tp_channel.Leakage.Leak

let no_leak r =
  match r.Tp_channel.Leakage.verdict with
  | Tp_channel.Leakage.No_evidence | Tp_channel.Leakage.Negligible -> true
  | Tp_channel.Leakage.Leak -> false

(* Collect, then judge: the paper's two-step methodology (§5.3). *)
let leak_of ?placement b ~sender ~receiver spec ~rng =
  let r =
    Tp_attacks.Harness.run_pair_result ?placement b ~sender ~receiver spec ~rng
  in
  Tp_channel.Leakage.test ~rng r.Tp_attacks.Harness.data

let measure_chan ?(samples = 250) ?(p = haswell) kind
    (chan : Tp_attacks.Cache_channels.t) =
  let b = Scenario.boot kind p in
  let sender, receiver = chan.Tp_attacks.Cache_channels.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples;
      symbols = chan.Tp_attacks.Cache_channels.symbols;
    }
  in
  let rng = Tp_util.Rng.create ~seed:77 in
  leak_of b ~sender ~receiver spec ~rng

let test_l1d_raw_leaks () =
  Alcotest.(check bool) "L1-D raw leaks" true
    (is_leak (measure_chan Scenario.Raw Tp_attacks.Cache_channels.l1d))

let test_l1d_protected_closed () =
  Alcotest.(check bool) "L1-D protected closed" true
    (no_leak (measure_chan Scenario.Protected Tp_attacks.Cache_channels.l1d))

let test_l1d_full_flush_closed () =
  Alcotest.(check bool) "L1-D full flush closed" true
    (no_leak (measure_chan Scenario.Full_flush Tp_attacks.Cache_channels.l1d))

let test_l1i_raw_leaks () =
  Alcotest.(check bool) "L1-I raw leaks" true
    (is_leak (measure_chan Scenario.Raw Tp_attacks.Cache_channels.l1i))

let test_tlb_raw_leaks () =
  Alcotest.(check bool) "TLB raw leaks" true
    (is_leak (measure_chan Scenario.Raw Tp_attacks.Cache_channels.tlb))

let test_tlb_protected_closed () =
  Alcotest.(check bool) "TLB protected closed" true
    (no_leak (measure_chan Scenario.Protected Tp_attacks.Cache_channels.tlb))

let test_btb_raw_leaks_x86 () =
  Alcotest.(check bool) "BTB raw leaks on x86" true
    (is_leak (measure_chan Scenario.Raw (Tp_attacks.Cache_channels.btb haswell)))

let test_btb_protected_closed () =
  Alcotest.(check bool) "BTB protected closed" true
    (no_leak
       (measure_chan Scenario.Protected (Tp_attacks.Cache_channels.btb haswell)))

let test_bhb_raw_leaks () =
  Alcotest.(check bool) "BHB raw leaks" true
    (is_leak (measure_chan Scenario.Raw Tp_attacks.Cache_channels.bhb))

let test_bhb_protected_closed () =
  Alcotest.(check bool) "BHB protected closed" true
    (no_leak (measure_chan Scenario.Protected Tp_attacks.Cache_channels.bhb))

let test_l2_raw_leaks () =
  Alcotest.(check bool) "L2 raw leaks" true
    (is_leak (measure_chan Scenario.Raw Tp_attacks.Cache_channels.l2))

let test_l2_residual_prefetcher_channel () =
  (* The paper's §5.3.2 headline: protected leaves a residual L2
     channel through the prefetcher; disabling the prefetcher closes
     it.  Needs more samples than the binary checks. *)
  let leak_prot =
    measure_chan ~samples:500 Scenario.Protected Tp_attacks.Cache_channels.l2
  in
  let leak_nopf =
    measure_chan ~samples:500 Scenario.Protected_no_prefetcher
      Tp_attacks.Cache_channels.l2
  in
  Alcotest.(check bool) "residual channel under protection" true
    (is_leak leak_prot);
  Alcotest.(check bool) "closed with prefetcher off" true (no_leak leak_nopf)

let test_l1d_sabre_raw_leaks () =
  Alcotest.(check bool) "L1-D raw leaks on sabre" true
    (is_leak (measure_chan ~p:sabre Scenario.Raw Tp_attacks.Cache_channels.l1d))

let test_l1d_sabre_protected_closed () =
  Alcotest.(check bool) "L1-D protected closed on sabre" true
    (no_leak
       (measure_chan ~p:sabre Scenario.Protected Tp_attacks.Cache_channels.l1d))

(* ------------------------------------------------------------------ *)
(* Kernel-image channel (Figure 3) *)

let measure_kernel_chan kind =
  let b = Scenario.boot kind haswell in
  let sender, receiver = Tp_attacks.Kernel_chan.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec haswell) with
      Tp_attacks.Harness.samples = 250;
      symbols = Tp_attacks.Kernel_chan.symbols;
    }
  in
  let rng = Tp_util.Rng.create ~seed:5 in
  leak_of b ~sender ~receiver spec ~rng

let test_kernel_chan_shared_kernel_leaks () =
  Alcotest.(check bool) "shared kernel leaks despite coloured userland" true
    (is_leak (measure_kernel_chan Scenario.Coloured_only))

let test_kernel_chan_cloned_kernel_closed () =
  Alcotest.(check bool) "cloned kernels close the channel" true
    (no_leak (measure_kernel_chan Scenario.Protected))

(* ------------------------------------------------------------------ *)
(* Flush-latency channel (Table 4) *)

let measure_flush ~padded obs =
  let kind = if padded then Scenario.Protected else Scenario.Protected_no_pad in
  let b = Scenario.boot kind haswell in
  let sender, receiver = Tp_attacks.Flush_chan.prepare obs b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec haswell) with
      Tp_attacks.Harness.samples = 250;
      symbols = Tp_attacks.Flush_chan.symbols;
    }
  in
  let rng = Tp_util.Rng.create ~seed:6 in
  leak_of b ~sender ~receiver spec ~rng

let test_flush_channel_no_pad_leaks () =
  Alcotest.(check bool) "offline time leaks without padding" true
    (is_leak (measure_flush ~padded:false Tp_attacks.Flush_chan.Offline))

let test_flush_channel_padded_closed () =
  Alcotest.(check bool) "padding closes the flush channel" true
    (no_leak (measure_flush ~padded:true Tp_attacks.Flush_chan.Offline))

(* ------------------------------------------------------------------ *)
(* Interrupt channel (Figure 6) *)

let measure_irq kind =
  let p = haswell in
  let b = Scenario.boot kind p in
  let sender, receiver = Tp_attacks.Irq_chan.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples = 100;
      symbols = Tp_attacks.Irq_chan.symbols;
      slice_cycles = Tp_hw.Platform.us_to_cycles p 10_000.0;
      noise_sigma = 50.0;
      warmup = 2;
    }
  in
  let rng = Tp_util.Rng.create ~seed:8 in
  leak_of b ~sender ~receiver spec ~rng

let test_irq_channel_raw_leaks () =
  Alcotest.(check bool) "timer interrupt channel open" true
    (is_leak (measure_irq Scenario.Raw))

let test_irq_channel_partitioned_closed () =
  Alcotest.(check bool) "IRQ partitioning closes it" true
    (no_leak (measure_irq Scenario.Protected))

(* ------------------------------------------------------------------ *)
(* Cross-core LLC attack (Figure 4) *)

let test_crypto_raw_recovers_key () =
  let b = Scenario.boot Scenario.Raw haswell in
  let rng = Tp_util.Rng.create ~seed:11 in
  match Tp_attacks.Crypto.run b ~key_bits:40 ~rng with
  | Some t ->
      Alcotest.(check bool) "recovers >= 90% of key bits" true
        (Tp_attacks.Crypto.recovery_rate t >= 0.9)
  | None -> Alcotest.fail "attack failed to calibrate on the raw system"

let test_crypto_protected_blind () =
  let b = Scenario.boot Scenario.Protected haswell in
  let rng = Tp_util.Rng.create ~seed:11 in
  match Tp_attacks.Crypto.run b ~key_bits:40 ~rng with
  | None -> ()
  | Some t ->
      Alcotest.(check bool) "no activity visible" false
        (Array.exists (fun a -> a > 0) t.Tp_attacks.Crypto.activity)

let test_crypto_ground_truth_consistency () =
  let b = Scenario.boot Scenario.Raw haswell in
  let rng = Tp_util.Rng.create ~seed:12 in
  match Tp_attacks.Crypto.run b ~key_bits:24 ~rng with
  | Some t ->
      (* One op per slot: squares = key_bits (+1 leading?), and each
         1-bit adds a multiply slot. *)
      let squares = Array.to_list t.Tp_attacks.Crypto.square_slots
                    |> List.filter Fun.id |> List.length in
      Alcotest.(check int) "one square per key bit" 24 squares
  | None -> Alcotest.fail "calibration failed"

(* ------------------------------------------------------------------ *)
(* Interconnect channel (beyond-paper) *)

let test_bus_channel_open_under_protection () =
  let b = Scenario.boot Scenario.Protected haswell in
  let rng = Tp_util.Rng.create ~seed:13 in
  let r = Tp_attacks.Bus_chan.run b ~samples:300 ~partitioned:false ~rng in
  Alcotest.(check bool) "bus channel open despite time protection" true
    (is_leak r)

let test_bus_channel_closed_by_partitioning () =
  let b = Scenario.boot Scenario.Protected haswell in
  let rng = Tp_util.Rng.create ~seed:13 in
  let r = Tp_attacks.Bus_chan.run b ~samples:300 ~partitioned:true ~rng in
  Alcotest.(check bool) "hardware bandwidth partition closes it" true
    (no_leak r)

let test_bus_channel_mba_insufficient () =
  (* Footnote 5: Intel MBA's approximate enforcement "is insufficient
     for preventing covert channels". *)
  let b = Scenario.boot Scenario.Protected haswell in
  let rng = Tp_util.Rng.create ~seed:13 in
  let r =
    Tp_attacks.Bus_chan.run_mode b ~samples:300
      ~mode:(Tp_hw.Interconnect.Mba 0.4) ~rng
  in
  Alcotest.(check bool) "MBA leaves the channel open" true (is_leak r)

(* ------------------------------------------------------------------ *)
(* Intel CAT way-partitioning (§2.3, CATalyst) *)

let test_cat_closes_llc_attack () =
  let b = Scenario.boot Scenario.Cat_llc haswell in
  let rng = Tp_util.Rng.create ~seed:99 in
  match Tp_attacks.Crypto.run b ~key_bits:40 ~rng with
  | None -> ()
  | Some t ->
      Alcotest.(check bool) "no victim activity visible under CAT" false
        (Array.exists (fun a -> a > 0) t.Tp_attacks.Crypto.activity)

let test_cat_leaves_on_core_channels () =
  (* The paper's argument for kernel-enforced time protection: CAT
     partitions only the LLC; on-core channels (here L1-D) stay wide
     open without flushing. *)
  Alcotest.(check bool) "L1-D still leaks under CAT alone" true
    (is_leak (measure_chan Scenario.Cat_llc Tp_attacks.Cache_channels.l1d))

let test_cat_masks_are_disjoint () =
  let b = Scenario.boot Scenario.Cat_llc haswell in
  let m0 = System.cat_mask_of_domain b.Boot.sys 0 in
  let m1 = System.cat_mask_of_domain b.Boot.sys 1 in
  Alcotest.(check bool) "masks non-trivial" true (m0 <> max_int && m1 <> max_int);
  Alcotest.(check int) "masks disjoint" 0 (m0 land m1)

(* ------------------------------------------------------------------ *)
(* Gang scheduling (§3.1.1) *)

let measure_cosched placement =
  let b = Scenario.boot Scenario.Protected haswell in
  let sender, receiver = Tp_attacks.Cosched_chan.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec haswell) with
      Tp_attacks.Harness.samples = 200;
      symbols = Tp_attacks.Cosched_chan.symbols;
    }
  in
  let rng = Tp_util.Rng.create ~seed:21 in
  leak_of ~placement b ~sender ~receiver spec ~rng

let test_cross_core_concurrent_leaks () =
  (* Full time protection does not help against a concurrent
     cross-core bandwidth channel — which is why the confinement
     threat model must exclude it. *)
  Alcotest.(check bool) "concurrent: open despite time protection" true
    (is_leak (measure_cosched Tp_attacks.Harness.Concurrent))

let test_cross_core_cosched_closed () =
  Alcotest.(check bool) "gang-scheduled: closed" true
    (no_leak (measure_cosched Tp_attacks.Harness.Coscheduled))

(* ------------------------------------------------------------------ *)
(* DRAM row-buffer channel (beyond-paper, taxonomy §2.2) *)

let run_dram config =
  let b = Boot.boot ~platform:haswell ~config ~domains:2 () in
  let rng = Tp_util.Rng.create ~seed:4 in
  Tp_attacks.Dram_chan.run b ~samples:250 ~rng

let test_dram_channel_raw_leaks () =
  Alcotest.(check bool) "row-buffer channel open on raw" true
    (is_leak (run_dram Config.raw))

let test_dram_channel_survives_protection () =
  (* Row-buffer state is outside the architected flush set: full time
     protection does not close this channel — the same
     hardware-contract gap as the prefetcher. *)
  Alcotest.(check bool) "row-buffer channel survives time protection" true
    (is_leak (run_dram (Config.protected_ haswell)))

let test_dram_channel_closed_by_row_close () =
  Alcotest.(check bool) "hypothetical precharge-on-switch closes it" true
    (no_leak
       (run_dram
          { (Config.protected_ haswell) with Config.close_dram_rows = true }))

(* ------------------------------------------------------------------ *)
(* Harness mechanics *)

let test_harness_pairs_symbols () =
  (* A sender/receiver pair that communicates perfectly through shared
     harness-side state proves the symbol pairing is aligned. *)
  let b = Scenario.boot Scenario.Raw haswell in
  let latest = ref 0.0 in
  let sender ctx sym =
    latest := float_of_int sym;
    Uctx.idle_rest ctx
  in
  let receiver _ctx = Some !latest in
  let spec =
    {
      (Tp_attacks.Harness.default_spec haswell) with
      Tp_attacks.Harness.samples = 50;
      noise_sigma = 0.0;
      (* This sender communicates through a host-side ref, not through
         the machine — exactly the kind of body the record/replay
         contract excludes (replay re-executes machine ops only), so
         it must opt out. *)
      replay = false;
    }
  in
  let rng = Tp_util.Rng.create ~seed:1 in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  Alcotest.(check bool) "complete" false r.Tp_attacks.Harness.degraded;
  let s = r.Tp_attacks.Harness.data in
  Alcotest.(check int) "all samples" 50 (Array.length s.Tp_channel.Mi.input);
  Array.iteri
    (fun i sym ->
      Alcotest.(check (float 1e-9)) "aligned" (float_of_int sym)
        s.Tp_channel.Mi.output.(i))
    s.Tp_channel.Mi.input

let test_harness_rejects_empty () =
  let b = Scenario.boot Scenario.Raw haswell in
  let sender ctx _ = Tp_kernel.Uctx.idle_rest ctx in
  let receiver _ = None in
  let spec =
    { (Tp_attacks.Harness.default_spec haswell) with Tp_attacks.Harness.samples = 5 }
  in
  let rng = Tp_util.Rng.create ~seed:1 in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  Alcotest.(check int) "no samples" 0
    (Array.length r.Tp_attacks.Harness.data.Tp_channel.Mi.input);
  Alcotest.(check bool) "degraded" true r.Tp_attacks.Harness.degraded;
  Alcotest.(check (option string)) "reason" (Some "sample shortfall")
    r.Tp_attacks.Harness.degraded_reason;
  match Tp_channel.Leakage.test ~rng r.Tp_attacks.Harness.data with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()


let suite =
  [
    Alcotest.test_case "L1-D raw leaks" `Slow test_l1d_raw_leaks;
    Alcotest.test_case "L1-D protected closed" `Slow test_l1d_protected_closed;
    Alcotest.test_case "L1-D full-flush closed" `Slow test_l1d_full_flush_closed;
    Alcotest.test_case "L1-I raw leaks" `Slow test_l1i_raw_leaks;
    Alcotest.test_case "TLB raw leaks" `Slow test_tlb_raw_leaks;
    Alcotest.test_case "TLB protected closed" `Slow test_tlb_protected_closed;
    Alcotest.test_case "BTB raw leaks (x86)" `Slow test_btb_raw_leaks_x86;
    Alcotest.test_case "BTB protected closed" `Slow test_btb_protected_closed;
    Alcotest.test_case "BHB raw leaks" `Slow test_bhb_raw_leaks;
    Alcotest.test_case "BHB protected closed" `Slow test_bhb_protected_closed;
    Alcotest.test_case "L2 raw leaks" `Slow test_l2_raw_leaks;
    Alcotest.test_case "L2 residual prefetcher channel" `Slow
      test_l2_residual_prefetcher_channel;
    Alcotest.test_case "L1-D raw leaks (sabre)" `Slow test_l1d_sabre_raw_leaks;
    Alcotest.test_case "L1-D protected closed (sabre)" `Slow
      test_l1d_sabre_protected_closed;
    Alcotest.test_case "kernel channel: shared kernel leaks" `Slow
      test_kernel_chan_shared_kernel_leaks;
    Alcotest.test_case "kernel channel: cloning closes" `Slow
      test_kernel_chan_cloned_kernel_closed;
    Alcotest.test_case "flush channel: no pad leaks" `Slow
      test_flush_channel_no_pad_leaks;
    Alcotest.test_case "flush channel: padded closed" `Slow
      test_flush_channel_padded_closed;
    Alcotest.test_case "irq channel: raw leaks" `Slow test_irq_channel_raw_leaks;
    Alcotest.test_case "irq channel: partitioned closed" `Slow
      test_irq_channel_partitioned_closed;
    Alcotest.test_case "crypto: raw recovers key" `Quick test_crypto_raw_recovers_key;
    Alcotest.test_case "crypto: protected blind" `Quick test_crypto_protected_blind;
    Alcotest.test_case "crypto: ground truth" `Quick
      test_crypto_ground_truth_consistency;
    Alcotest.test_case "CAT closes LLC attack" `Quick test_cat_closes_llc_attack;
    Alcotest.test_case "CAT leaves on-core channels" `Slow
      test_cat_leaves_on_core_channels;
    Alcotest.test_case "CAT masks disjoint" `Quick test_cat_masks_are_disjoint;
    Alcotest.test_case "cross-core concurrent leaks" `Slow
      test_cross_core_concurrent_leaks;
    Alcotest.test_case "cross-core cosched closed" `Slow
      test_cross_core_cosched_closed;
    Alcotest.test_case "dram channel raw leaks" `Quick test_dram_channel_raw_leaks;
    Alcotest.test_case "dram channel survives TP" `Quick
      test_dram_channel_survives_protection;
    Alcotest.test_case "dram channel closed by row-close" `Quick
      test_dram_channel_closed_by_row_close;
    Alcotest.test_case "bus channel open under TP" `Quick
      test_bus_channel_open_under_protection;
    Alcotest.test_case "bus channel closed by partition" `Quick
      test_bus_channel_closed_by_partitioning;
    Alcotest.test_case "bus channel: MBA insufficient" `Quick
      test_bus_channel_mba_insufficient;
    Alcotest.test_case "harness pairs symbols" `Quick test_harness_pairs_symbols;
    Alcotest.test_case "harness rejects empty" `Quick test_harness_rejects_empty;
  ]
