(* Tests for the leakage certifier: sound per-channel bounds
   specialised by configuration (0 bits under full time protection,
   structural capacity when raw, program footprints when a guest is
   given), the small-scope exhaustive noninterference check and its
   cross-validation against the abstract bounds, the monotonicity of
   certification along the Config.strengthen lattice, the
   Bounds-domination of the shrunken-machine scrub, and the JSON/SARIF
   emission (round-trip through a strict parser). *)

open Tp_core
open Tp_kernel
module Diag = Tp_analysis.Diag
module Lint = Tp_analysis.Lint
module Ctcheck = Tp_analysis.Ctcheck
module Ct_ir = Tp_analysis.Ct_ir
module Absint = Tp_analysis.Absint
module Certify = Tp_analysis.Certify
module Kcert = Tp_analysis.Kcert
module Shrink = Tp_hw.Shrink
module Machine = Tp_hw.Machine

let haswell = Tp_hw.Platform.haswell
let sabre = Tp_hw.Platform.sabre
let platforms = [ haswell; sabre ]

let all_kinds =
  Scenario.
    [
      Raw;
      Full_flush;
      Protected;
      Coloured_only;
      Protected_no_pad;
      Protected_no_prefetcher;
      Cat_llc;
    ]

(* Booting is the expensive part; views are reused across tests. *)
let view =
  let cache = Hashtbl.create 8 in
  fun kind p ->
    let key = Scenario.name kind ^ "/" ^ p.Tp_hw.Platform.name in
    match Hashtbl.find_opt cache key with
    | Some v -> v
    | None ->
        let v = Lint.view_of_booted (Scenario.boot kind p) in
        Hashtbl.replace cache key v;
        v

let bound_of c ch =
  List.find (fun b -> b.Certify.b_channel = ch) c.Certify.c_bounds

(* ------------------------------------------------------------------ *)
(* Configuration-level certificates *)

let test_protected_zero () =
  List.iter
    (fun p ->
      let c = Certify.certify_view (view Scenario.Protected p) in
      Alcotest.(check int)
        (p.Tp_hw.Platform.name ^ " state bits")
        0 (Certify.state_bits c);
      Alcotest.(check int) (p.Tp_hw.Platform.name ^ " timing bits") 0
        c.Certify.c_timing_bits;
      Alcotest.(check int)
        (p.Tp_hw.Platform.name ^ " total bits")
        0 (Certify.total_bits c);
      Alcotest.(check bool)
        (p.Tp_hw.Platform.name ^ " report clean")
        true
        (Diag.clean (Certify.report c)))
    Tp_hw.Platform.all

let test_raw_positive () =
  List.iter
    (fun p ->
      let c = Certify.certify_view (view Scenario.Raw p) in
      (* Every channel open at its structural capacity; in particular
         L1-D and TLB (the acceptance floor) must be strictly
         positive. *)
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s > 0" p.Tp_hw.Platform.name
               (Certify.channel_name b.Certify.b_channel))
            true (b.Certify.b_bits > 0);
          Alcotest.(check int)
            (Printf.sprintf "%s %s at capacity" p.Tp_hw.Platform.name
               (Certify.channel_name b.Certify.b_channel))
            b.Certify.b_raw b.Certify.b_bits)
        c.Certify.c_bounds;
      Alcotest.(check bool)
        (p.Tp_hw.Platform.name ^ " timing open")
        true
        (c.Certify.c_timing_bits > 0);
      let r = Certify.report c in
      Alcotest.(check bool) "dirty" false (Diag.clean r);
      List.iter
        (fun rule ->
          Alcotest.(check bool) (rule ^ " present") true
            (List.mem rule (Diag.rules r)))
        [
          Certify.rule_l1d_residue;
          Certify.rule_tlb_residue;
          Certify.rule_pad_timing;
        ])
    Tp_hw.Platform.all

let test_coloured_only_channels () =
  (* Coloured userland with a shared kernel: the kernel image defeats
     the spatial partition (Fig. 3), so the LLC stays open — and no
     flushing means the on-core channels stay open too. *)
  let c = Certify.certify_view (view Scenario.Coloured_only haswell) in
  Alcotest.(check bool) "LLC open" true ((bound_of c Certify.Llc).b_bits > 0);
  Alcotest.(check bool) "L1-D open" true ((bound_of c Certify.L1d).b_bits > 0)

let test_no_pad_timing_only () =
  List.iter
    (fun p ->
      let c = Certify.certify_view (view Scenario.Protected_no_pad p) in
      Alcotest.(check int) (p.Tp_hw.Platform.name ^ " state") 0
        (Certify.state_bits c);
      Alcotest.(check bool)
        (p.Tp_hw.Platform.name ^ " timing residue")
        true
        (c.Certify.c_timing_bits > 0))
    platforms

(* ------------------------------------------------------------------ *)
(* Program-level certificates (Absint footprints) *)

let test_fixture_sqmul_raw () =
  let v = view Scenario.Raw haswell in
  let fx = Option.get (Ctcheck.fixture "sqmul") in
  let c = Certify.certify_fixture v fx in
  List.iter
    (fun ch ->
      Alcotest.(check bool)
        (Certify.channel_name ch ^ " > 0")
        true
        ((bound_of c ch).Certify.b_bits > 0))
    [ Certify.L1d; Certify.Tlb; Certify.Bp ];
  (* Tightening: the program footprint can only shrink the structural
     capacities. *)
  let structural = Certify.certify_view v in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Certify.channel_name b.Certify.b_channel ^ " tightened")
        true
        (b.Certify.b_bits
        <= (bound_of structural b.Certify.b_channel).Certify.b_bits))
    c.Certify.c_bounds;
  Alcotest.(check bool) "strictly below capacity" true
    (Certify.total_bits c < Certify.total_bits structural)

let test_fixture_ct_zero_state () =
  (* The constant-time rewrites deposit no secret-dependent residency
     even on the raw machine: only the timing pseudo-channel (a
     configuration property, not a program property) remains. *)
  let v = view Scenario.Raw haswell in
  List.iter
    (fun name ->
      let fx = Option.get (Ctcheck.fixture name) in
      let c = Certify.certify_fixture v fx in
      Alcotest.(check int) (name ^ " state bits") 0 (Certify.state_bits c))
    [ "sqmul-ct"; "sbox-ct" ]

let test_fixtures_protected_zero () =
  let v = view Scenario.Protected haswell in
  List.iter
    (fun fx ->
      let c = Certify.certify_fixture v fx in
      Alcotest.(check int)
        (fx.Ctcheck.fx_program.Ct_ir.p_name ^ " total")
        0 (Certify.total_bits c))
    Ctcheck.fixtures

(* ------------------------------------------------------------------ *)
(* Monotonicity along the strengthening lattice (QCheck) *)

let override_config v (c : Config.t) =
  {
    v with
    Lint.v_config = c;
    Lint.v_pad = c.Config.pad_cycles;
    Lint.v_kernels =
      List.map
        (fun k -> { k with Lint.kv_pad = c.Config.pad_cycles })
        v.Lint.v_kernels;
  }

let qcheck_strengthen_monotone =
  QCheck.Test.make
    ~name:"strengthening never increases the certified bound" ~count:60
    QCheck.(pair (int_bound (List.length all_kinds - 1)) bool)
    (fun (ki, on_sabre) ->
      let p = if on_sabre then sabre else haswell in
      let kind = List.nth all_kinds ki in
      let v = view kind p in
      let base_cfg = v.Lint.v_config in
      let base = Certify.total_bits (Certify.certify_view (override_config v base_cfg)) in
      List.for_all
        (fun c' ->
          let t =
            Certify.total_bits (Certify.certify_view (override_config v c'))
          in
          if t > base then
            QCheck.Test.fail_reportf
              "%s %s: strengthened config certifies %d > base %d bits"
              p.Tp_hw.Platform.name (Scenario.name kind) t base
          else true)
        (Config.strengthen ~pad_for:(Lint.pad_bound p) base_cfg))

(* ------------------------------------------------------------------ *)
(* Shrink: scrub cost domination (QCheck) *)

(* Machine-scope plans: every step but the kernel-layer manual L1
   flush, in any order and multiplicity. *)
let machine_steps = Tp_hw.Flush.[ L1_hw; L2; Llc; Tlb; Bp; Dram_close ]

let step_name = function
  | Tp_hw.Flush.L1_hw -> "L1_hw"
  | Tp_hw.Flush.L1_manual -> "L1_manual"
  | Tp_hw.Flush.L2 -> "L2"
  | Tp_hw.Flush.Llc -> "Llc"
  | Tp_hw.Flush.Tlb -> "Tlb"
  | Tp_hw.Flush.Bp -> "Bp"
  | Tp_hw.Flush.Dram_close -> "Dram_close"

let arb_plan =
  QCheck.make
    ~print:(fun plan -> String.concat ";" (List.map step_name plan))
    QCheck.Gen.(list_size (int_bound 6) (oneofl machine_steps))

let qcheck_scrub_bound_dominates =
  let geometries = Shrink.variants haswell @ Shrink.variants sabre in
  QCheck.Test.make
    ~name:"Shrink.bound dominates the exact scrub cost" ~count:120
    QCheck.(
      triple
        (int_bound (List.length geometries - 1))
        arb_plan (small_list small_nat))
    (fun (gi, plan, activity) ->
      let p = List.nth geometries gi in
      let m = Machine.create p in
      (* Dirty the machine with arbitrary traffic first: the bound must
         hold from every reachable state, including dirty lines (write
         backs) and populated TLBs/predictors. *)
      List.iteri
        (fun i n ->
          let vaddr = 0x1000_0000 + (n mod 16 * 4096) + (n mod 64 * 64) in
          let kind =
            match n mod 3 with
            | 0 -> Tp_hw.Defs.Read
            | 1 -> Tp_hw.Defs.Write
            | _ -> Tp_hw.Defs.Fetch
          in
          ignore
            (Machine.access m ~core:0 ~asid:(1 + (n mod 2)) ~vaddr
               ~paddr:vaddr ~kind ());
          if n mod 5 = 0 then
            ignore
              (Machine.cond_branch m ~core:0 ~asid:1
                 ~vaddr:(0x2000_0000 + (i mod 32 * 64))
                 ~paddr:(0x2000_0000 + (i mod 32 * 64))
                 ~taken:(n mod 2 = 0)))
        activity;
      let cost = Shrink.apply m ~core:0 plan in
      let bound = Shrink.bound p plan in
      if cost > bound then
        QCheck.Test.fail_reportf "%s: scrub cost %d > bound %d"
          p.Tp_hw.Platform.name cost bound
      else true)

(* ------------------------------------------------------------------ *)
(* Small-scope exhaustive noninterference *)

let test_exhaustive_protected_passes () =
  List.iter
    (fun p ->
      let r =
        Certify.exhaustive ~domains:2 p (Scenario.config Scenario.Protected p)
      in
      Alcotest.(check bool)
        (p.Tp_hw.Platform.name ^ " passes")
        true
        (r.Certify.ex_counterexample = None);
      Alcotest.(check int)
        (p.Tp_hw.Platform.name ^ " all schedules")
        16 r.Certify.ex_schedules;
      Alcotest.(check (list string))
        (p.Tp_hw.Platform.name ^ " crosscheck silent")
        []
        (List.map
           (fun f -> f.Diag.rule)
           (Certify.crosscheck
              (Certify.certify_view (view Scenario.Protected p))
              r)))
    Tp_hw.Platform.all

let test_exhaustive_raw_counterexample () =
  List.iter
    (fun p ->
      let r =
        Certify.exhaustive ~domains:2 p (Scenario.config Scenario.Raw p)
      in
      match r.Certify.ex_counterexample with
      | None -> Alcotest.fail (p.Tp_hw.Platform.name ^ ": raw passed")
      | Some cx ->
          Alcotest.(check int)
            "schedule length = horizon" r.Certify.ex_horizon
            (String.length cx.Certify.cx_schedule);
          String.iter
            (fun ch ->
              Alcotest.(check bool) "schedule alphabet" true
                (ch = 'V' || ch = 'A'))
            cx.Certify.cx_schedule;
          Alcotest.(check bool) "observations differ" true
            (cx.Certify.cx_obs_a <> cx.Certify.cx_obs_b);
          Alcotest.(check bool) "distinct secrets" true
            (cx.Certify.cx_secret_a <> cx.Certify.cx_secret_b))
    platforms

let test_crosscheck_all_configs () =
  (* The soundness cross-validation the two engines owe each other: a
     0-bit certificate must never coexist with a concrete
     distinguishing schedule.  Quantified over every scenario on both
     platforms. *)
  List.iter
    (fun p ->
      List.iter
        (fun kind ->
          let c = Certify.certify_view (view kind p) in
          let r = Certify.exhaustive ~domains:2 p (Scenario.config kind p) in
          let name =
            Printf.sprintf "%s %s" p.Tp_hw.Platform.name (Scenario.name kind)
          in
          Alcotest.(check (list string))
            (name ^ " crosscheck silent")
            []
            (List.map
               (fun f -> f.Diag.rule)
               (Certify.crosscheck c r));
          if Certify.total_bits c = 0 then
            Alcotest.(check bool)
              (name ^ " 0 bits => noninterference")
              true
              (r.Certify.ex_counterexample = None))
        all_kinds)
    platforms

(* ------------------------------------------------------------------ *)
(* Measured MI vs certified bound (the harness contract) *)

let measure_l1d kind =
  let p = haswell in
  let b = Scenario.boot kind p in
  let chan = Tp_attacks.Cache_channels.l1d in
  let sender, receiver = chan.Tp_attacks.Cache_channels.prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples = 250;
      symbols = chan.Tp_attacks.Cache_channels.symbols;
    }
  in
  let rng = Tp_util.Rng.create ~seed:77 in
  let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
  (Tp_channel.Leakage.test ~rng r.Tp_attacks.Harness.data, r)

let test_measured_mi_below_bound_raw () =
  let leak, hr = measure_l1d Scenario.Raw in
  let bits = Certify.total_bits hr.Tp_attacks.Harness.cert in
  Alcotest.(check bool) "raw certifies > 0" true (bits > 0);
  Alcotest.(check bool) "raw leaks (premise non-vacuous)" true
    (leak.Tp_channel.Leakage.verdict = Tp_channel.Leakage.Leak);
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f <= certified %d bits"
       leak.Tp_channel.Leakage.m bits)
    true
    (leak.Tp_channel.Leakage.m <= float_of_int bits)

let test_measured_mi_below_bound_protected () =
  (* A 0-bit certificate: any Leak verdict would exceed the bound. *)
  let leak, hr = measure_l1d Scenario.Protected in
  Alcotest.(check int) "protected certifies 0" 0
    (Certify.total_bits hr.Tp_attacks.Harness.cert);
  Alcotest.(check bool) "no leak above a 0-bit certificate" true
    (leak.Tp_channel.Leakage.verdict <> Tp_channel.Leakage.Leak)

(* ------------------------------------------------------------------ *)
(* JSON / SARIF emission: strict parse and escape round-trip.
   [Json.parse] rejects trailing garbage, raw control bytes in strings
   and unknown escapes, so it exercises the emitters' escaping. *)

module Json = Tp_util.Json

let mem k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing key %s" k

let jstr j =
  match Json.str j with Some s -> s | None -> Alcotest.fail "not a string"

let jlist j =
  match Json.arr j with Some l -> l | None -> Alcotest.fail "not a list"

let jint j =
  match Json.int_ j with Some n -> n | None -> Alcotest.fail "not an int"

let nasty =
  "q\" b\\ nl\n tab\t cr\r bs\b ff\012 nul-ish\001 s\xc2\xa7 end"

let test_json_roundtrip_nasty () =
  let r =
    {
      Diag.subject = "subject " ^ nasty;
      findings =
        [
          Diag.error ~rule:"TEST-RULE"
            ~context:[ (nasty, nasty) ]
            ("message " ^ nasty);
        ];
    }
  in
  let j = Json.parse (Diag.reports_to_json [ r ]) in
  match jlist j with
  | [ rj ] ->
      Alcotest.(check string) "subject" ("subject " ^ nasty)
        (jstr (mem "subject" rj));
      let fj = List.hd (jlist (mem "findings" rj)) in
      Alcotest.(check string) "message" ("message " ^ nasty)
        (jstr (mem "message" fj));
      Alcotest.(check string) "context value" nasty
        (jstr (mem nasty (mem "context" fj)))
  | _ -> Alcotest.fail "expected a one-report array"

let test_sarif_shape () =
  let reports =
    [
      Certify.report (Certify.certify_view (view Scenario.Raw haswell));
      Certify.report (Certify.certify_view (view Scenario.Protected haswell));
      {
        Diag.subject = "nasty " ^ nasty;
        findings = [ Diag.warning ~rule:"TEST-RULE" nasty ];
      };
    ]
  in
  let j = Json.parse (Diag.reports_to_sarif reports) in
  Alcotest.(check string) "version" "2.1.0" (jstr (mem "version" j));
  let run = List.hd (jlist (mem "runs" j)) in
  let driver = mem "driver" (mem "tool" run) in
  Alcotest.(check string) "driver name" "tpsim" (jstr (mem "name" driver));
  let rules = Array.of_list (jlist (mem "rules" driver)) in
  let results = jlist (mem "results" run) in
  let expected = List.length (List.concat_map (fun r -> r.Diag.findings) reports) in
  Alcotest.(check int) "one result per finding" expected (List.length results);
  List.iter
    (fun res ->
      let idx = jint (mem "ruleIndex" res) in
      Alcotest.(check bool) "ruleIndex in range" true
        (idx >= 0 && idx < Array.length rules);
      Alcotest.(check string) "ruleId matches rules table"
        (jstr (mem "id" rules.(idx)))
        (jstr (mem "ruleId" res));
      let level = jstr (mem "level" res) in
      Alcotest.(check bool) ("level " ^ level) true
        (List.mem level [ "error"; "warning"; "note" ]);
      ignore (jstr (mem "text" (mem "message" res))))
    results

(* ------------------------------------------------------------------ *)
(* Ct_ir layout hooks (the certifier's page-colour control) *)

let test_layout_default_preserved () =
  (* Pinning every array to exactly where the default packing puts it
     must reproduce the default execution bit-for-bit: the layout hook
     cannot have moved the historical addresses. *)
  let fx = Option.get (Ctcheck.fixture "sqmul") in
  let layout = Ct_ir.array_layout fx.Ctcheck.fx_program in
  List.iter
    (fun (name, base, _) ->
      Alcotest.(check int) (name ^ " page-aligned") 0 (base mod 4096);
      Alcotest.(check bool) (name ^ " above data_base") true
        (base >= Ct_ir.data_base))
    layout;
  let inputs = fx.Ctcheck.fx_public @ fx.Ctcheck.fx_secret_a in
  let r1 =
    Ct_ir.execute (Machine.create haswell) ~core:0 fx.Ctcheck.fx_program
      ~inputs
  in
  let pins = List.map (fun (nm, base, _) -> (nm, base)) layout in
  let r2 =
    Ct_ir.execute ~arrays_at:pins (Machine.create haswell) ~core:0
      fx.Ctcheck.fx_program ~inputs
  in
  Alcotest.(check bool) "identical traces" true
    (Ct_ir.diff_traces r1.Ct_ir.x_trace r2.Ct_ir.x_trace = None)

let test_layout_pins_respected () =
  let fx = Option.get (Ctcheck.fixture "sqmul") in
  let p = fx.Ctcheck.fx_program in
  let target = 0x5000_0000 in
  let first_array = fst (List.hd p.Ct_ir.p_arrays) in
  let layout = Ct_ir.array_layout ~arrays_at:[ (first_array, target) ] p in
  let _, base, _ =
    List.find (fun (nm, _, _) -> nm = first_array) layout
  in
  Alcotest.(check int) "pinned base" target base;
  (* Unpinned arrays must not collide with the pin. *)
  List.iter
    (fun (nm, b, len) ->
      if nm <> first_array then
        Alcotest.(check bool) (nm ^ " disjoint from pin") true
          (b + (len * Ct_ir.word) <= target || b >= target + 4096))
    layout;
  match
    Ct_ir.array_layout ~arrays_at:[ (first_array, target + 256) ] p
  with
  | _ -> Alcotest.fail "unaligned pin accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Kernel lifecycle certificates (Kcert) *)

let kcert_platforms = Tp_hw.Platform.all

let kcert ?path kind p =
  Kcert.certify ?path p ~config_name:(Scenario.name kind)
    (Scenario.config kind p)

let steps_of_path = function Kcert.Switch -> 12 | Kcert.Clone -> 6 | Kcert.Destroy -> 6

let test_kcert_protected_zero () =
  (* The protected configuration must certify 0 bits on every lifecycle
     path: switch, clone and destroy are all fully scrubbed/partitioned
     and padded/deterministic. *)
  List.iter
    (fun p ->
      List.iter
        (fun path ->
          let c = kcert ~path Scenario.Protected p in
          let name =
            Printf.sprintf "%s %s" p.Tp_hw.Platform.name
              (Certify.kernel_path_slug path)
          in
          Alcotest.(check int) (name ^ " state bits") 0 (Kcert.state_bits c);
          Alcotest.(check int) (name ^ " total bits") 0 (Kcert.total_bits c);
          Alcotest.(check bool)
            (name ^ " report clean")
            true
            (Diag.clean (Kcert.report c));
          Alcotest.(check int)
            (name ^ " steps")
            (steps_of_path path)
            (List.length c.Kcert.k_steps))
        Certify.all_kernel_paths)
    kcert_platforms

let test_kcert_raw_capacity () =
  List.iter
    (fun p ->
      let c = kcert Scenario.Raw p in
      Alcotest.(check bool)
        (p.Tp_hw.Platform.name ^ " residue")
        true
        (Kcert.total_bits c > 0);
      List.iter
        (fun b ->
          let name =
            Printf.sprintf "%s %s" p.Tp_hw.Platform.name
              (Certify.channel_name b.Certify.b_channel)
          in
          Alcotest.(check bool) (name ^ " nothing scrubbed") false
            b.Certify.b_scrubbed;
          Alcotest.(check int)
            (name ^ " bits = capacity - coverage")
            (b.Certify.b_raw - b.Certify.b_covered)
            b.Certify.b_bits;
          (* The physically-indexed LLC gets no must-coverage from the
             trace; the branch predictor now earns some through the
             modelled BTB/gshare index hashes, so the raw switch bound
             is strictly tighter than the full structural capacity. *)
          if b.Certify.b_channel = Certify.Llc then
            Alcotest.(check int) (name ^ " zero coverage") 0
              b.Certify.b_covered;
          if b.Certify.b_channel = Certify.Bp then
            Alcotest.(check bool) (name ^ " BP hash coverage earned") true
              (b.Certify.b_covered > 0))
        c.Kcert.k_bounds;
      let r = Kcert.report c in
      Alcotest.(check bool) (p.Tp_hw.Platform.name ^ " dirty") false
        (Diag.clean r);
      List.iter
        (fun rule ->
          Alcotest.(check bool) (rule ^ " present") true
            (List.mem rule (Diag.rules r)))
        [ Kcert.rule_l1d_residue; Kcert.rule_tlb_residue; Kcert.rule_pad_timing ])
    kcert_platforms

let test_kcert_sound_all_configs () =
  (* The lint cross-check (TP-KCERT-UNSOUND) must stay silent on every
     honestly produced certificate, on every lifecycle path: each
     channel within its structural capacity, timing within the
     pad+operation capacity, the total within the Bounds-derived
     analytic envelope. *)
  List.iter
    (fun p ->
      List.iter
        (fun kind ->
          List.iter
            (fun path ->
              let c = kcert ~path kind p in
              let name =
                Printf.sprintf "%s %s %s" p.Tp_hw.Platform.name
                  (Scenario.name kind) (Certify.kernel_path_slug path)
              in
              List.iter
                (fun b ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s within capacity" name
                       (Certify.channel_name b.Certify.b_channel))
                    true
                    (b.Certify.b_bits >= 0 && b.Certify.b_bits <= b.Certify.b_raw))
                c.Kcert.k_bounds;
              Alcotest.(check bool)
                (name ^ " within analytic envelope")
                true
                (Kcert.total_bits c
                <= Kcert.analytic_worst_bits ~path p c.Kcert.k_config);
              Alcotest.(check int) (name ^ " canary silent") 0
                (List.length (Kcert.check_sound p c)))
            Certify.all_kernel_paths;
          Alcotest.(check int)
            (Printf.sprintf "%s %s lint crosscheck silent"
               p.Tp_hw.Platform.name (Scenario.name kind))
            0
            (List.length
               (Kcert.lint_crosscheck p ~config_name:(Scenario.name kind)
                  (Scenario.config kind p))))
        all_kinds)
    kcert_platforms

let test_kcert_absint_differential () =
  (* Differential oracle: the unified Absint kernel-trace back-end must
     reproduce the original standalone set-wise coverage pass
     bit-for-bit on every lifted trace — same platform geometries, same
     granularity, same min(k, ways) counting. *)
  List.iter
    (fun p ->
      List.iter
        (fun kind ->
          let cfg = Scenario.config kind p in
          List.iter
            (fun path ->
              let steps = Kcert.lift ~path p cfg in
              let accs =
                List.concat_map (fun s -> s.Kcert.s_accesses) steps
              in
              let must = List.filter (fun a -> a.Kcert.a_must) accs in
              let is_fetch a = a.Kcert.a_kind = Tp_hw.Defs.Fetch in
              let code = List.filter is_fetch must in
              let data = List.filter (fun a -> not (is_fetch a)) must in
              let cov =
                Absint.cover_trace p
                  (List.map
                     (fun a ->
                       {
                         Absint.ka_vaddr = a.Kcert.a_vaddr;
                         ka_bytes = a.Kcert.a_bytes;
                         ka_fetch = is_fetch a;
                         ka_fixed = a.Kcert.a_must;
                       })
                     accs)
              in
              let name =
                Printf.sprintf "%s %s %s" p.Tp_hw.Platform.name
                  (Scenario.name kind) (Certify.kernel_path_slug path)
              in
              Alcotest.(check int) (name ^ " l1d")
                (Kcert.covered_cache p.Tp_hw.Platform.l1d data)
                cov.Absint.kc_l1d;
              Alcotest.(check int) (name ^ " l1i")
                (Kcert.covered_cache p.Tp_hw.Platform.l1i code)
                cov.Absint.kc_l1i;
              Alcotest.(check int) (name ^ " dtlb")
                (Kcert.covered_tlb p.Tp_hw.Platform.dtlb
                   (Kcert.pages_of data))
                cov.Absint.kc_dtlb;
              Alcotest.(check int) (name ^ " itlb")
                (Kcert.covered_tlb p.Tp_hw.Platform.itlb
                   (Kcert.pages_of code))
                cov.Absint.kc_itlb;
              Alcotest.(check int) (name ^ " l2tlb")
                (Kcert.covered_tlb p.Tp_hw.Platform.l2tlb
                   (Kcert.pages_of must))
                cov.Absint.kc_l2tlb)
            Certify.all_kernel_paths)
        all_kinds)
    kcert_platforms

let qcheck_bp_coverage_capacity =
  (* The BP-hash coverage is a structural under-approximation: whatever
     the (deterministic) branch trace, it can never claim more pinned
     entries than the predictor has. *)
  QCheck.Test.make
    ~name:"BP-hash coverage never exceeds structural capacity" ~count:200
    QCheck.(
      pair
        (small_list (triple small_nat bool small_nat))
        (small_list small_nat))
    (fun (branches, jumps) ->
      List.for_all
        (fun p ->
          let btb = p.Tp_hw.Platform.btb and bhb = p.Tp_hw.Platform.bhb in
          let trace =
            List.map (fun (s, t, n) -> (0x1000 + (s * 4), t, 1 + n)) branches
          in
          let sites = List.map (fun s -> 0x2000 + (s * 4)) jumps in
          let bc = Absint.btb_coverage btb sites in
          let pc = Absint.pht_coverage bhb trace in
          if
            bc < 0
            || bc > btb.Tp_hw.Btb.entries
            || bc > List.length (List.sort_uniq compare sites)
          then
            QCheck.Test.fail_reportf "%s: BTB coverage %d out of range"
              p.Tp_hw.Platform.name bc
          else if pc < 0 || pc > bhb.Tp_hw.Bhb.pht_entries then
            QCheck.Test.fail_reportf "%s: PHT coverage %d out of range"
              p.Tp_hw.Platform.name pc
          else true)
        Tp_hw.Platform.all)

let qcheck_lifecycle_op_bound_dominates =
  (* The analytic clone/destroy costs (Shrink.*_op_bound, feeding the
     certificates' op_bound via Lint) must dominate the exact modelled
     operation cost from every reachable machine state. *)
  let geometries = Shrink.variants haswell @ Shrink.variants sabre in
  QCheck.Test.make
    ~name:"Shrink lifecycle op bounds dominate exact costs" ~count:60
    QCheck.(
      triple
        (int_bound (List.length geometries - 1))
        bool (small_list small_nat))
    (fun (gi, do_clone, activity) ->
      let p = List.nth geometries gi in
      let m = Machine.create p in
      List.iter
        (fun n ->
          let vaddr = 0x1000_0000 + (n mod 16 * 4096) + (n mod 64 * 64) in
          let kind =
            match n mod 3 with
            | 0 -> Tp_hw.Defs.Read
            | 1 -> Tp_hw.Defs.Write
            | _ -> Tp_hw.Defs.Fetch
          in
          ignore
            (Machine.access m ~core:0 ~asid:(1 + (n mod 2)) ~vaddr
               ~paddr:vaddr ~kind ()))
        activity;
      let page = Tp_hw.Defs.page_size in
      let base = 0x5000_0000 in
      let cost, bound =
        if do_clone then
          ( Shrink.clone_op m ~core:0 ~asid:2 ~src:base
              ~dst:(base + (2 * page)),
            Shrink.clone_op_bound p )
        else
          ( Shrink.destroy_op m ~core:0 ~asid:2
              ~barrier:(base + (6 * page)),
            Shrink.destroy_op_bound p )
      in
      if cost > bound then
        QCheck.Test.fail_reportf "%s: %s cost %d > bound %d"
          p.Tp_hw.Platform.name
          (if do_clone then "clone" else "destroy")
          cost bound
      else true)

let test_kcert_canary_fires () =
  (* Sabotage a certificate and the canary must notice: that is the
     whole point of carrying the analytic envelope separately. *)
  let c = kcert Scenario.Raw haswell in
  let inflated =
    {
      c with
      Kcert.k_bounds =
        List.map
          (fun b ->
            if b.Certify.b_channel = Certify.L1d then
              { b with Certify.b_bits = b.Certify.b_raw + 1 }
            else b)
          c.Kcert.k_bounds;
    }
  in
  let findings = Kcert.check_sound haswell inflated in
  Alcotest.(check bool) "inflated channel flagged" true (findings <> []);
  List.iter
    (fun f ->
      Alcotest.(check string) "rule id" Lint.rule_kcert_unsound f.Diag.rule)
    findings;
  let overtimed =
    { c with Kcert.k_timing_bits =
        Certify.pad_slack ~bound:c.Kcert.k_pad_bound ~pad:0 + 3 }
  in
  Alcotest.(check bool) "inflated timing flagged" true
    (Kcert.check_sound haswell overtimed <> [])

let qcheck_kcert_strengthen_monotone =
  QCheck.Test.make
    ~name:"strengthening never increases any kernel lifecycle bound"
    ~count:60
    QCheck.(
      pair
        (int_bound (List.length all_kinds - 1))
        (int_bound (List.length Tp_hw.Platform.all - 1)))
    (fun (ki, pi) ->
      let p = List.nth Tp_hw.Platform.all pi in
      let kind = List.nth all_kinds ki in
      let cfg = Scenario.config kind p in
      let bases =
        List.map (fun path -> (path, Kcert.total_bits (kcert ~path kind p)))
          Certify.all_kernel_paths
      in
      List.for_all
        (fun c' ->
          (* The certified bits of every path are monotone along the
             strengthen lattice, and so are the analytic clone/destroy
             duration bounds themselves (colouring can only shrink the
             DRAM component of a sweep). *)
          List.for_all
            (fun (path, base) ->
              let t =
                Kcert.total_bits
                  (Kcert.certify ~path p ~config_name:"strengthened" c')
              in
              if t > base then
                QCheck.Test.fail_reportf
                  "%s %s %s: strengthened kernel cert %d > base %d bits"
                  p.Tp_hw.Platform.name (Scenario.name kind)
                  (Certify.kernel_path_slug path) t base
              else true)
            bases
          && (if Lint.clone_bound p c' > Lint.clone_bound p cfg then
                QCheck.Test.fail_reportf "%s %s: clone bound grew"
                  p.Tp_hw.Platform.name (Scenario.name kind)
              else true)
          &&
          if Lint.destroy_bound p c' > Lint.destroy_bound p cfg then
            QCheck.Test.fail_reportf "%s %s: destroy bound grew"
              p.Tp_hw.Platform.name (Scenario.name kind)
          else true)
        (Config.strengthen ~pad_for:(Lint.pad_bound p) cfg))

let test_schedules_enumeration () =
  (* 2-domain schedules must reproduce the original bit enumeration
     (PR 6) exactly: 'A' for a 0 bit, 'V' for a 1 bit, least
     significant turn first. *)
  let two = Shrink.schedules ~domains:2 ~horizon:4 in
  Alcotest.(check int) "2^4 schedules" 16 (List.length two);
  List.iteri
    (fun i s ->
      Alcotest.(check string) (Printf.sprintf "schedule %d" i)
        (String.init 4 (fun j -> if i lsr j land 1 = 1 then 'V' else 'A'))
        s)
    two;
  let three = Shrink.schedules ~domains:3 ~horizon:4 in
  Alcotest.(check int) "3^4 schedules" 81 (List.length three);
  Alcotest.(check int) "all distinct" 81
    (List.length (List.sort_uniq compare three));
  List.iter
    (fun s ->
      String.iter
        (fun ch ->
          Alcotest.(check bool) "alphabet AVD" true
            (ch = 'A' || ch = 'V' || ch = 'D'))
        s)
    three;
  (match Shrink.schedules ~domains:4 ~horizon:2 with
  | _ -> Alcotest.fail "4 domains accepted"
  | exception Invalid_argument _ -> ());
  match Shrink.schedules ~domains:2 ~horizon:0 with
  | _ -> Alcotest.fail "0 horizon accepted"
  | exception Invalid_argument _ -> ()

let test_kcert_exhaustive3_agreement () =
  (* The 3-domain small-scope check must agree with the abstract
     kernel certificate on every platform: protected (0 bits) passes,
     raw produces a concrete 3-party distinguishing schedule, and the
     certificate embedding never reports a contradiction. *)
  List.iter
    (fun p ->
      let name = p.Tp_hw.Platform.name in
      let cfg = Scenario.config Scenario.Protected p in
      let ex = Certify.exhaustive ~domains:3 p cfg in
      Alcotest.(check int) (name ^ " domains") 3 ex.Certify.ex_domains;
      Alcotest.(check int) (name ^ " schedules") 81 ex.Certify.ex_schedules;
      Alcotest.(check bool) (name ^ " protected passes") true
        (ex.Certify.ex_counterexample = None);
      let c =
        Kcert.certify ~exhaustive:ex p ~config_name:"protected" cfg
      in
      Alcotest.(check int) (name ^ " certified 0") 0 (Kcert.total_bits c);
      Alcotest.(check bool) (name ^ " no contradiction") false
        (List.mem Kcert.rule_xcheck (Diag.rules (Kcert.report c)));
      let raw =
        Certify.exhaustive ~domains:3 p (Scenario.config Scenario.Raw p)
      in
      match raw.Certify.ex_counterexample with
      | None -> Alcotest.fail (name ^ ": raw passed the 3-domain check")
      | Some cx ->
          String.iter
            (fun ch ->
              Alcotest.(check bool) "alphabet AVD" true
                (ch = 'A' || ch = 'V' || ch = 'D'))
            cx.Certify.cx_schedule)
    kcert_platforms

let test_kcert_artifact_deterministic () =
  let p = haswell in
  let cfg = Scenario.config Scenario.Protected p in
  let plain = Kcert.certify p ~config_name:"protected" cfg in
  let again = Kcert.certify p ~config_name:"protected" cfg in
  Alcotest.(check string) "core json deterministic" (Kcert.core_json plain)
    (Kcert.core_json again);
  let ex = Certify.exhaustive ~domains:3 p cfg in
  let full = Kcert.certify ~exhaustive:ex p ~config_name:"protected" cfg in
  Alcotest.(check string) "digest ignores the exhaustive block"
    (Kcert.digest plain) (Kcert.digest full);
  Alcotest.(check string) "artifact name" "haswell-protected-switch.cert.json"
    (Kcert.artifact_name full);
  Alcotest.(check string) "clone artifact name"
    "haswell-protected-clone.cert.json"
    (Kcert.artifact_name
       (Kcert.certify ~path:Kcert.Clone p ~config_name:"protected" cfg));
  let j = Json.parse (Kcert.to_json full) in
  Alcotest.(check string) "schema" Kcert.schema (jstr (mem "schema" j));
  Alcotest.(check string) "path field" "switch" (jstr (mem "path" j));
  Alcotest.(check string) "embedded digest" (Kcert.digest full)
    (jstr (mem "digest" j));
  Alcotest.(check string) "platform" "haswell" (jstr (mem "platform" j));
  Alcotest.(check int) "certified_bits" 0 (jint (mem "certified_bits" j));
  Alcotest.(check int) "exhaustive domains" 3
    (jint (mem "domains" (mem "exhaustive" j)));
  Alcotest.(check int) "12 steps serialised" 12
    (List.length (jlist (mem "steps" j)))

(* The checked-in goldens: the matrix `tpsim certify --kernel -p all`
   writes (every platform x scenario x path, named by the scenario's
   slug, with its 3-domain exhaustive check embedded) must match
   certs/kernel/ byte for byte, with no file missing or left over.
   The path is relative to the repository root, where both `dune
   runtest` (in the build context) and `dune exec
   test/test_main.exe` run. *)
let certs_dir = "certs/kernel"

let test_kcert_goldens () =
  let certs =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun (slug, kind) ->
            let cfg = Scenario.config kind p in
            List.map
              (fun path ->
                ( kind,
                  Kcert.certify
                    ~exhaustive:(Certify.exhaustive ~path ~domains:3 p cfg)
                    ~path p ~config_name:slug cfg ))
              Certify.all_kernel_paths)
          Scenario.slugs)
      Tp_hw.Platform.all
  in
  let names = List.map (fun (_, c) -> Kcert.artifact_name c) certs in
  let drift =
    List.filter_map
      (fun (_, c) ->
        let file = Filename.concat certs_dir (Kcert.artifact_name c) in
        match In_channel.with_open_bin file In_channel.input_all with
        | got when got = Kcert.to_json c -> None
        | _ -> Some ("differs: " ^ file)
        | exception Sys_error _ -> Some ("missing: " ^ file))
      certs
  and stale =
    Sys.readdir certs_dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           Filename.check_suffix f ".cert.json" && not (List.mem f names))
    |> List.map (fun f -> "stale, delete it: " ^ Filename.concat certs_dir f)
  in
  if drift @ stale <> [] then
    Alcotest.failf
      "%s\nregenerate with `tpsim certify --kernel -p all --certs %s` and \
       review the diff"
      (String.concat "\n" (drift @ stale))
      certs_dir;
  List.iter
    (fun (kind, c) ->
      let clean = Diag.clean (Kcert.report c) in
      if kind = Scenario.Protected || kind = Scenario.Raw then
        Alcotest.(check bool)
          (Kcert.artifact_name c ^ " report clean")
          (kind = Scenario.Protected) clean)
    certs

(* ------------------------------------------------------------------ *)
(* The switch-flush plan: certifiers agree, execution matches *)

(* Every configuration one strengthening step from raw or protected,
   plus the two bases themselves. *)
let plan_lattice p =
  List.concat_map
    (fun base ->
      base :: Config.strengthen ~pad_for:(Lint.pad_bound p) base)
    [ Config.raw; Config.protected_ p ]

let boot_config p cfg = Boot.boot ~platform:p ~config:cfg ()

let config_label p cfg =
  Printf.sprintf "%s {%s pad=%d}" p.Tp_hw.Platform.name
    (String.concat " "
       (List.filter_map
          (fun m -> if m.Config.get cfg then Some m.Config.key else None)
          Config.mechanisms))
    cfg.Config.pad_cycles

let test_flush_l2_alone_keeps_l2_open () =
  (* [flush_l2] only flushes alongside [flush_l1]: on its own the
     private L2 stays open, so its lines stay in the LLC-channel bound. *)
  let llc_bits cfg =
    (bound_of (Certify.certify_static (boot_config haswell cfg)) Certify.Llc)
      .Certify.b_bits
  in
  Alcotest.(check int) "raw LLC bits" 135168 (llc_bits Config.raw);
  Alcotest.(check int) "flush_l2 alone: same LLC bits" 135168
    (llc_bits { Config.raw with Config.flush_l2 = true })

let test_partition_facts_agree_with_config () =
  (* Both certifiers build their bounds with the one [Certify.bounds];
     what differs is where the partition facts come from.  The static
     certifier reads them off the booted view ([colour_partition_ok],
     [clone_ok], [cat_ok]); the kernel certifier takes the
     configuration's claim.  On every point of the strengthen lattice
     the two must close the same channels.  The outer-cache channel is
     compared by its bits (per level, no coverage), so an L2 closed by
     one view and open in the other shows. *)
  let closed bounds =
    List.map
      (fun b ->
        ( Certify.channel_name b.Certify.b_channel,
          b.Certify.b_scrubbed,
          if b.Certify.b_channel = Certify.Llc then b.Certify.b_bits else 0 ))
      bounds
  in
  List.iter
    (fun p ->
      List.iter
        (fun cfg ->
          Alcotest.(check (list (triple string bool int)))
            (config_label p cfg)
            (closed (Kcert.certify p ~config_name:"lattice" cfg).Kcert.k_bounds)
            (closed (Certify.certify_static (boot_config p cfg)).Certify.c_bounds))
        (plan_lattice p))
    Tp_hw.Platform.all

(* The oracle: the hardware flush spans one real cross-domain switch
   emits, against the plan.  The manual L1 flush is memory traffic, not
   a flush operation, so it emits no span; nor does the DRAM
   precharge; a platform without a private L2 has nothing to flush. *)
let expected_spans (p : Tp_hw.Platform.t) plan =
  List.filter_map
    (function
      | Tp_hw.Flush.L1_hw -> Some "flush_l1"
      | Tp_hw.Flush.L2 -> if p.l2 = None then None else Some "flush_l2"
      | Tp_hw.Flush.Llc -> Some "flush_llc"
      | Tp_hw.Flush.Tlb -> Some "flush_tlbs"
      | Tp_hw.Flush.Bp -> Some "flush_bp"
      | Tp_hw.Flush.L1_manual | Tp_hw.Flush.Dram_close -> None)
    plan

let test_plan_matches_execution () =
  let module Trace = Tp_obs.Trace in
  Trace.start ~capacity:64 ();
  Fun.protect
    ~finally:(fun () ->
      Trace.stop ();
      Trace.clear ())
    (fun () ->
      List.iter
        (fun p ->
          List.iter
            (fun cfg ->
              let b = boot_config p cfg in
              let sys = b.Boot.sys in
              let spawn d =
                let t = Boot.spawn b b.Boot.domains.(d) (fun _ -> ()) in
                Sched.remove (System.sched sys) ~core:0 t;
                t
              in
              let t0 = spawn 0 and t1 = spawn 1 in
              ignore (Domain_switch.switch sys ~core:0 ~to_:t0);
              let cost, events =
                Trace.with_capture ~capacity:4096 (fun () ->
                    Domain_switch.switch sys ~core:0 ~to_:t1)
              in
              let hw = List.filter (fun e -> e.Trace.cat = "hw") events in
              let plan = Config.flush_plan p cfg in
              let name = config_label p cfg in
              Alcotest.(check (list string)) (name ^ " flush spans")
                (expected_spans p plan)
                (List.map (fun e -> e.Trace.name) hw);
              (* Without the manual flush, the switch's flush cycles are
                 exactly the spans plus the fixed precharge cost. *)
              if not (List.mem Tp_hw.Flush.L1_manual plan) then
                Alcotest.(check int) (name ^ " flush cycles")
                  (List.fold_left (fun a e -> a + e.Trace.dur) 0 hw
                  + if List.mem Tp_hw.Flush.Dram_close plan then
                      Machine.dram_close_cost
                    else 0)
                  cost.Domain_switch.flush)
            (plan_lattice p))
        Tp_hw.Platform.all)

(* ------------------------------------------------------------------ *)
(* Pinned static certificates *)

(* What `tpsim certify --exhaustive` emits for one scenario — the
   static certificate and its exhaustive result — plus the linter's
   pad-bound breakdown, digested.  Pinned for every scenario on every
   platform, so a change to how any consumer reads the configuration's
   flush policy shows up here as a digest change. *)
let static_pin_digest p kind =
  let v = view kind p in
  let subject =
    Printf.sprintf "certify %s %s" p.Tp_hw.Platform.name (Scenario.name kind)
  in
  let cfg = Scenario.config kind p in
  let breakdown =
    String.concat ","
      (List.map
         (fun (name, c) -> Printf.sprintf "%s=%d" name c)
         (Lint.pad_bound_breakdown p cfg))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            Certify.cert_to_json (Certify.certify_view ~subject v);
            Certify.exhaustive_to_json (Certify.exhaustive ~domains:2 p cfg);
            breakdown;
          ]))

let static_pins =
  [
    ("haswell/raw", "7b504f6ad51b7e58e5c8e0bd331816f7");
    ("haswell/full-flush", "5b2debbd318c988380aed43372e473ef");
    ("haswell/protected", "eb4b3b77ebaeb9243d5f4dbad9398264");
    ("haswell/coloured-only", "2831b4881ba12793b06680de21f000e1");
    ("haswell/no-pad", "23e6d048c3e5d88dfdfd480b2394489e");
    ("haswell/no-prefetcher", "c0c0e2f03a526efe959180c8172df828");
    ("haswell/cat-llc", "3af9201498d41595049bf1cd509fb7e8");
    ("sabre/raw", "2b7b1c42bc9b9aa15bde71816bfecada");
    ("sabre/full-flush", "46cc9559d77e12ec9c04b0106153033d");
    ("sabre/protected", "3ed39306084fde9136f6b628d2c2424f");
    ("sabre/coloured-only", "8e82cdf8286df912a20da7a88cb15472");
    ("sabre/no-pad", "ebf0e15df89bec9f479eb411b832593b");
    ("sabre/no-prefetcher", "7174ae6e09c3465406b4bc232f67599c");
    ("sabre/cat-llc", "a98149527c082ea08a6f45151b37513d");
    ("armv8/raw", "a8fe451b2cd9199395768505d4dc9e46");
    ("armv8/full-flush", "f8b12515d67e9fdedd5d866579db7544");
    ("armv8/protected", "c8f5baabdf873a1cf8c070c3da6cfc68");
    ("armv8/coloured-only", "3234b28d90f22395111089c0a1c74573");
    ("armv8/no-pad", "c4c4f4fabcc7da826b7fc118fc533b82");
    ("armv8/no-prefetcher", "b4e2d822cc4f2de6ca8d6cb0541cadc7");
    ("armv8/cat-llc", "99760676074392d979e2f743e140e0df");
  ]

let test_static_certs_pinned () =
  List.iter
    (fun p ->
      List.iter
        (fun kind ->
          let key = p.Tp_hw.Platform.name ^ "/" ^ Scenario.slug kind in
          Alcotest.(check string) key (List.assoc key static_pins)
            (static_pin_digest p kind))
        all_kinds)
    Tp_hw.Platform.all

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "protected certifies 0 bits" `Quick test_protected_zero;
    Alcotest.test_case "raw certifies structural capacity" `Quick
      test_raw_positive;
    Alcotest.test_case "coloured-only: shared kernel keeps LLC open" `Quick
      test_coloured_only_channels;
    Alcotest.test_case "no-pad: timing-only residue" `Quick
      test_no_pad_timing_only;
    Alcotest.test_case "fixture: sqmul footprint" `Quick test_fixture_sqmul_raw;
    Alcotest.test_case "fixture: ct rewrites deposit 0 state bits" `Quick
      test_fixture_ct_zero_state;
    Alcotest.test_case "fixtures: protected certifies 0" `Quick
      test_fixtures_protected_zero;
    QCheck_alcotest.to_alcotest qcheck_strengthen_monotone;
    QCheck_alcotest.to_alcotest qcheck_scrub_bound_dominates;
    Alcotest.test_case "flush plan matches the executed switch" `Quick
      test_plan_matches_execution;
    Alcotest.test_case "exhaustive: protected passes" `Quick
      test_exhaustive_protected_passes;
    Alcotest.test_case "exhaustive: raw counterexample" `Quick
      test_exhaustive_raw_counterexample;
    Alcotest.test_case "crosscheck: abstract vs exhaustive" `Quick
      test_crosscheck_all_configs;
    Alcotest.test_case "measured MI <= certified bound (raw)" `Quick
      test_measured_mi_below_bound_raw;
    Alcotest.test_case "measured MI <= certified bound (protected)" `Quick
      test_measured_mi_below_bound_protected;
    Alcotest.test_case "json: escape round-trip" `Quick
      test_json_roundtrip_nasty;
    Alcotest.test_case "sarif: shape and rule table" `Quick test_sarif_shape;
    Alcotest.test_case "ct_ir: default layout preserved" `Quick
      test_layout_default_preserved;
    Alcotest.test_case "ct_ir: pinned layout respected" `Quick
      test_layout_pins_respected;
    Alcotest.test_case "kcert: protected certifies 0 bits" `Quick
      test_kcert_protected_zero;
    Alcotest.test_case "kcert: raw residue = capacity - coverage" `Quick
      test_kcert_raw_capacity;
    Alcotest.test_case "kcert: sound on every platform x config x path" `Quick
      test_kcert_sound_all_configs;
    Alcotest.test_case "kcert: Absint back-end matches reference coverage"
      `Quick test_kcert_absint_differential;
    Alcotest.test_case "kcert: unsoundness canary fires" `Quick
      test_kcert_canary_fires;
    QCheck_alcotest.to_alcotest qcheck_kcert_strengthen_monotone;
    QCheck_alcotest.to_alcotest qcheck_bp_coverage_capacity;
    QCheck_alcotest.to_alcotest qcheck_lifecycle_op_bound_dominates;
    Alcotest.test_case "shrink: schedule enumeration" `Quick
      test_schedules_enumeration;
    Alcotest.test_case "kcert: 3-domain exhaustive agreement" `Quick
      test_kcert_exhaustive3_agreement;
    Alcotest.test_case "kcert: deterministic digested artifact" `Quick
      test_kcert_artifact_deterministic;
    Alcotest.test_case "kcert: goldens match certs/kernel" `Quick
      test_kcert_goldens;
    Alcotest.test_case "static certificates pinned" `Quick
      test_static_certs_pinned;
    Alcotest.test_case "flush_l2 alone leaves the L2 open" `Quick
      test_flush_l2_alone_keeps_l2_open;
    Alcotest.test_case "booted partition facts match config"
      `Quick test_partition_facts_agree_with_config;
  ]
