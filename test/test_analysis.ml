(* Tests for the static-analysis layer: the partition linter (clean on
   the paper's protected configuration, and each seeded
   misconfiguration flagged with exactly its rule), the constant-time
   checker fixtures, and the Audit.capture hardening. *)

open Tp_kernel
open Tp_core
module Diag = Tp_analysis.Diag
module Lint = Tp_analysis.Lint
module Ctcheck = Tp_analysis.Ctcheck

let haswell = Tp_hw.Platform.haswell
let sabre = Tp_hw.Platform.sabre

(* ------------------------------------------------------------------ *)
(* Partition linter: positive results *)

let test_protected_lints_clean () =
  List.iter
    (fun p ->
      let b = Scenario.boot Scenario.Protected p in
      let r = Lint.run ~dynamic:true b in
      Alcotest.(check bool)
        (Printf.sprintf "%s protected clean (%s)" p.Tp_hw.Platform.name
           (Diag.summary r))
        true (Diag.clean r))
    Tp_hw.Platform.all

let test_raw_lints_dirty () =
  List.iter
    (fun p ->
      let r = Lint.check_static (Scenario.boot Scenario.Raw p) in
      List.iter
        (fun rule ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s present" p.Tp_hw.Platform.name rule)
            true
            (List.mem rule (Diag.rules r)))
        [
          Lint.rule_colour_off;
          Lint.rule_kernel_shared;
          Lint.rule_irq_off;
          Lint.rule_pad_insufficient;
        ])
    Tp_hw.Platform.all

let test_full_flush_no_kernel_shared () =
  (* Full flush keeps one kernel image but flushes all on-core state:
     the Fig. 3 kernel-image channel is closed, so TP-KERNEL-SHARED
     must stay quiet, but other rules still fire. *)
  List.iter
    (fun p ->
      let rules =
        Diag.rules (Lint.check_static (Scenario.boot Scenario.Full_flush p))
      in
      let name = p.Tp_hw.Platform.name in
      Alcotest.(check bool) (name ^ " has findings") true (rules <> []);
      Alcotest.(check bool) (name ^ " no TP-KERNEL-SHARED") false
        (List.mem Lint.rule_kernel_shared rules))
    Tp_hw.Platform.all

let test_pad_bound_within_window () =
  (* The analytic bound must sit inside (worst observed unpadded cost,
     configured pad]: below the pad or the configuration is unsound;
     above the empirically calibrated floor or the bound is vacuous. *)
  List.iter
    (fun (p, floor_) ->
      let cfg = Scenario.config Scenario.Protected p in
      let bound = Lint.pad_bound p cfg in
      Alcotest.(check bool)
        (Printf.sprintf "%s bound %d > floor %d" p.Tp_hw.Platform.name bound
           floor_)
        true (bound > floor_);
      Alcotest.(check bool)
        (Printf.sprintf "%s bound %d <= pad %d" p.Tp_hw.Platform.name bound
           cfg.Config.pad_cycles)
        true
        (bound <= cfg.Config.pad_cycles))
    [ (haswell, 55_435); (sabre, 40_238) ]

(* ------------------------------------------------------------------ *)
(* Partition linter: seeded misconfigurations (QCheck) *)

let base_view =
  let cache = Hashtbl.create 2 in
  fun p ->
    match Hashtbl.find_opt cache p.Tp_hw.Platform.name with
    | Some v -> v
    | None ->
        let v = Lint.view_of_booted (Scenario.boot Scenario.Protected p) in
        Hashtbl.replace cache p.Tp_hw.Platform.name v;
        v

let dom v i = List.nth v.Lint.v_domains i

(* Inject one violation class into a clean protected view; returns the
   mutated view and the single rule it must trip. *)
let mutate v cls r =
  let d0 = dom v 0 and d1 = dom v 1 in
  match cls with
  | 0 ->
      (* Overlapping colours: domain 0 steals one of domain 1's. *)
      let pool = Colour.to_list d1.Lint.dv_colours in
      let stolen = List.nth pool (r mod List.length pool) in
      let domains =
        List.map
          (fun d ->
            if d.Lint.dv_id = d0.Lint.dv_id then
              { d with Lint.dv_colours = Colour.add d.Lint.dv_colours stolen }
            else d)
          v.Lint.v_domains
      in
      ({ v with Lint.v_domains = domains }, Lint.rule_colour_overlap)
  | 1 ->
      (* Pad below the analytic bound. *)
      let bound = Lint.pad_bound v.Lint.v_platform v.Lint.v_config in
      ({ v with Lint.v_pad = r mod bound }, Lint.rule_pad_insufficient)
  | 2 ->
      (* One IRQ deliverable to both domains' kernels. *)
      let irq = 20 + (r mod 10) in
      let routes =
        List.filter (fun (i, _) -> i <> irq) v.Lint.v_irq_routes
      in
      ( {
          v with
          Lint.v_irq_routes =
            (irq, d0.Lint.dv_kernel) :: (irq, d1.Lint.dv_kernel) :: routes;
        },
        Lint.rule_irq_shared )
  | _ ->
      (* Missing clone: domain 1 runs on domain 0's image. *)
      let domains =
        List.map
          (fun d ->
            if d.Lint.dv_id = d1.Lint.dv_id then
              { d with Lint.dv_kernel = d0.Lint.dv_kernel }
            else d)
          v.Lint.v_domains
      in
      ({ v with Lint.v_domains = domains }, Lint.rule_clone_missing)

let qcheck_seeded_misconfig =
  QCheck.Test.make ~name:"seeded misconfiguration flags exactly its rule"
    ~count:80
    QCheck.(triple (int_bound 3) bool small_nat)
    (fun (cls, on_haswell, r) ->
      let v = base_view (if on_haswell then haswell else sabre) in
      let mutated, rule = mutate v cls r in
      let report =
        { Diag.subject = "mutated"; findings = Lint.lint_view mutated }
      in
      Diag.rules report = [ rule ])

let test_base_views_clean () =
  (* The mutation tests are only meaningful if the base views lint
     clean (so the single seeded violation is the only signal). *)
  List.iter
    (fun p ->
      Alcotest.(check (list string))
        (p.Tp_hw.Platform.name ^ " base view clean") []
        (Diag.rules
           { Diag.subject = "base"; findings = Lint.lint_view (base_view p) }))
    [ haswell; sabre ]

(* ------------------------------------------------------------------ *)
(* Constant-time checker *)

let fixture name =
  match Ctcheck.fixture name with
  | Some fx -> fx
  | None -> Alcotest.failf "no fixture %s" name

let test_ctcheck_sqmul_leaks () =
  let v = Ctcheck.check_fixture haswell (fixture "sqmul") in
  Alcotest.(check bool) "static: not CT" false v.Ctcheck.v_static_ct;
  Alcotest.(check bool) "secret-dependent branch flagged" true
    (List.exists
       (fun (f : Diag.finding) -> f.Diag.rule = Ctcheck.rule_branch_secret)
       v.Ctcheck.v_static);
  Alcotest.(check bool) "dynamic: traces diverge" false v.Ctcheck.v_trace_equal;
  Alcotest.(check bool) "divergence located" true (v.Ctcheck.v_divergence <> None);
  Alcotest.(check bool) "verdict passes" true v.Ctcheck.v_pass

let test_ctcheck_sqmul_ct_clean () =
  let v = Ctcheck.check_fixture haswell (fixture "sqmul-ct") in
  Alcotest.(check bool) "static: CT" true v.Ctcheck.v_static_ct;
  Alcotest.(check bool) "dynamic: traces equal" true v.Ctcheck.v_trace_equal;
  Alcotest.(check bool) "traces non-trivial" true (v.Ctcheck.v_events > 0);
  Alcotest.(check bool) "verdict passes" true v.Ctcheck.v_pass

let test_ctcheck_sbox_pair () =
  let leaky = Ctcheck.check_fixture sabre (fixture "sbox-lookup") in
  Alcotest.(check bool) "lookup: secret-indexed load flagged" true
    (List.exists
       (fun (f : Diag.finding) -> f.Diag.rule = Ctcheck.rule_addr_secret)
       leaky.Ctcheck.v_static);
  Alcotest.(check bool) "lookup: traces diverge" false
    leaky.Ctcheck.v_trace_equal;
  let ct = Ctcheck.check_fixture sabre (fixture "sbox-ct") in
  Alcotest.(check bool) "scan: static CT" true ct.Ctcheck.v_static_ct;
  Alcotest.(check bool) "scan: traces equal" true ct.Ctcheck.v_trace_equal

let test_ctcheck_all_fixtures_pass () =
  List.iter
    (fun p ->
      List.iter
        (fun fx ->
          let v = Ctcheck.check_fixture p fx in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s agrees and matches ground truth"
               p.Tp_hw.Platform.name v.Ctcheck.v_name)
            true v.Ctcheck.v_pass)
        Ctcheck.fixtures)
    Tp_hw.Platform.all

(* ------------------------------------------------------------------ *)
(* Audit.capture hardening *)

let test_audit_nested_capture_rejected () =
  let b = Scenario.boot Scenario.Protected haswell in
  let sys = b.Boot.sys in
  Alcotest.check_raises "nested capture"
    (Invalid_argument
       "Tp_kernel.Audit.capture: nested capture is not supported") (fun () ->
      ignore
        (Audit.capture sys (fun () ->
             ignore (Audit.capture sys (fun () -> ())))))

let test_audit_capture_restores_on_exception () =
  let b = Scenario.boot Scenario.Protected haswell in
  let sys = b.Boot.sys in
  let hook _ ~off:_ ~len:_ ~kind:_ = () in
  System.set_shared_audit sys (Some hook);
  (try ignore (Audit.capture sys (fun () -> raise Exit))
   with Exit -> ());
  (match System.shared_audit sys with
  | Some h when h == hook -> ()
  | Some _ -> Alcotest.fail "a different hook was left installed"
  | None -> Alcotest.fail "previous hook was not restored");
  (* And the nesting guard must have been cleared by the unwinding:
     a fresh capture works. *)
  System.set_shared_audit sys None;
  ignore (Audit.capture sys (fun () -> ()))

let test_audit_capture_restores_none () =
  let b = Scenario.boot Scenario.Protected sabre in
  let sys = b.Boot.sys in
  System.set_shared_audit sys None;
  ignore (Audit.capture sys (fun () -> ()));
  (match System.shared_audit sys with
  | None -> ()
  | Some _ -> Alcotest.fail "hook left installed after capture")

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "protected lints clean" `Quick test_protected_lints_clean;
    Alcotest.test_case "raw lints dirty" `Quick test_raw_lints_dirty;
    Alcotest.test_case "full-flush: no kernel-shared" `Quick
      test_full_flush_no_kernel_shared;
    Alcotest.test_case "pad bound in window" `Quick test_pad_bound_within_window;
    Alcotest.test_case "base views clean" `Quick test_base_views_clean;
    QCheck_alcotest.to_alcotest qcheck_seeded_misconfig;
    Alcotest.test_case "ctcheck: sqmul leaks" `Quick test_ctcheck_sqmul_leaks;
    Alcotest.test_case "ctcheck: sqmul-ct clean" `Quick
      test_ctcheck_sqmul_ct_clean;
    Alcotest.test_case "ctcheck: sbox pair" `Quick test_ctcheck_sbox_pair;
    Alcotest.test_case "ctcheck: all fixtures pass" `Quick
      test_ctcheck_all_fixtures_pass;
    Alcotest.test_case "audit: nested capture rejected" `Quick
      test_audit_nested_capture_rejected;
    Alcotest.test_case "audit: restore on exception" `Quick
      test_audit_capture_restores_on_exception;
    Alcotest.test_case "audit: restore none" `Quick test_audit_capture_restores_none;
  ]
