(* Tests for the observability layer (Tp_obs): counters, tracing,
   pad-slack profiling — and above all the zero-cost guarantee: with
   observability on or off, every simulated result is bit-identical. *)

open Tp_obs

let sabre = Tp_hw.Platform.sabre

(* Every test leaves the global switches off so observability state
   cannot leak between tests (or into other suites). *)
let with_obs ?(counters = false) ?(trace = false) f () =
  Fun.protect
    ~finally:(fun () ->
      Ctl.all_off ();
      Trace.stop ();
      Trace.clear ();
      Padprof.reset ())
    (fun () ->
      Ctl.set_counters counters;
      if trace then Trace.start ~capacity:4096 ();
      f ())

(* --- zero-cost / non-perturbation ---------------------------------- *)

let table2_fingerprint () =
  let r = Tp_core.Exp_table2.run sabre in
  List.map
    (fun row ->
      ( row.Tp_core.Exp_table2.which,
        row.Tp_core.Exp_table2.direct_us,
        row.Tp_core.Exp_table2.indirect_us,
        row.Tp_core.Exp_table2.total_us ))
    r.Tp_core.Exp_table2.rows

let test_table2_unperturbed () =
  Ctl.all_off ();
  let off = table2_fingerprint () in
  let on =
    with_obs ~counters:true ~trace:true (fun () -> table2_fingerprint ()) ()
  in
  Alcotest.(check bool)
    "table2 results bit-identical with counters+trace on" true (off = on)

(* A protected switching workload: the cost record of every switch and
   the final clock must not depend on observability. *)
let switch_fingerprint () =
  let open Tp_kernel in
  let b = Tp_core.Scenario.boot Tp_core.Scenario.Protected sabre in
  let sys = b.Boot.sys in
  let t0 = Boot.spawn b b.Boot.domains.(0) (fun _ -> ()) in
  let t1 = Boot.spawn b b.Boot.domains.(1) (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 t0;
  Sched.remove (System.sched sys) ~core:0 t1;
  let costs = ref [] in
  for i = 1 to 40 do
    let c =
      Domain_switch.switch sys ~core:0 ~to_:(if i land 1 = 0 then t0 else t1)
    in
    costs :=
      ( c.Domain_switch.total,
        c.Domain_switch.flush,
        c.Domain_switch.pad_wait,
        c.Domain_switch.kernel_switched )
      :: !costs
  done;
  (List.rev !costs, System.now sys ~core:0)

let test_switch_unperturbed () =
  Ctl.all_off ();
  let off = switch_fingerprint () in
  let on =
    with_obs ~counters:true ~trace:true (fun () -> switch_fingerprint ()) ()
  in
  Alcotest.(check bool)
    "switch costs and clock bit-identical with counters+trace on" true
    (off = on)

let test_counters_off_never_count =
  with_obs ~counters:false (fun () ->
      let s = Counter.make_set "test.off" in
      let c = Counter.counter s "c" in
      Counter.incr c;
      Counter.add c 41;
      Alcotest.(check int) "disabled counter stays 0" 0 (Counter.value c))

(* --- counter semantics --------------------------------------------- *)

let test_counter_basics =
  with_obs ~counters:true (fun () ->
      let s = Counter.make_set "test.basic" in
      let a = Counter.counter s "a" in
      let b = Counter.counter s "b" in
      Counter.incr a;
      Counter.add b 5;
      Alcotest.(check (list (pair string int)))
        "snapshot in declaration order"
        [ ("a", 1); ("b", 5) ]
        (Counter.snapshot s);
      Alcotest.(check int) "total" 6 (Counter.total (Counter.snapshot s));
      Counter.reset s;
      Alcotest.(check (list (pair string int)))
        "reset zeroes, keeps names and order"
        [ ("a", 0); ("b", 0) ]
        (Counter.snapshot s))

let test_registry_replace =
  with_obs (fun () ->
      let s1 = Counter.make_set "test.reg" in
      let s2 = Counter.make_set "test.reg" in
      Counter.register s1;
      Counter.register s2;
      let hits =
        List.filter
          (fun s -> Counter.set_name s = "test.reg")
          (Counter.registered ())
      in
      Alcotest.(check int) "one survivor per name" 1 (List.length hits);
      Alcotest.(check bool) "latest registration wins" true (List.hd hits == s2))

let qcheck_delta_non_negative =
  QCheck.Test.make ~name:"counter deltas are non-negative and sum correctly"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (int_bound 1000))
    (fun adds ->
      with_obs ~counters:true
        (fun () ->
          let s = Counter.make_set "test.qc" in
          let c = Counter.counter s "c" in
          let before = Counter.snapshot s in
          List.iter (Counter.add c) adds;
          let d = Counter.delta ~before ~after:(Counter.snapshot s) in
          List.for_all (fun (_, v) -> v >= 0) d
          && Counter.total d = List.fold_left ( + ) 0 adds)
        ())

let qcheck_snapshot_reset_roundtrip =
  QCheck.Test.make ~name:"snapshot/reset round-trip preserves names"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 10) (int_bound 100))
    (fun vals ->
      with_obs ~counters:true
        (fun () ->
          let s = Counter.make_set "test.rt" in
          let cs =
            List.mapi
              (fun i v ->
                let c = Counter.counter s (Printf.sprintf "c%d" i) in
                Counter.add c v;
                c)
              vals
          in
          ignore cs;
          let snap = Counter.snapshot s in
          Counter.reset s;
          let zero = Counter.snapshot s in
          List.map fst snap = List.map fst zero
          && List.for_all (fun (_, v) -> v = 0) zero
          && List.map snd snap = vals)
        ())

(* --- trace ring ---------------------------------------------------- *)

let test_trace_ring_overwrite =
  with_obs (fun () ->
      Trace.start ~capacity:8 ();
      for i = 0 to 19 do
        Trace.span ~core:0 ~cat:"t" ~name:"s" ~ts:i ~dur:1 ()
      done;
      Alcotest.(check int) "ring keeps capacity" 8 (Trace.recorded ());
      Alcotest.(check int) "overwritten counted" 12 (Trace.dropped ());
      let ts = List.map (fun e -> e.Trace.ts) (Trace.events ()) in
      Alcotest.(check (list int))
        "oldest-first, most recent window"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        ts)

let test_trace_disabled_records_nothing =
  with_obs (fun () ->
      Trace.span ~core:0 ~cat:"t" ~name:"s" ~ts:0 ~dur:1 ();
      Alcotest.(check int) "no ring, no events" 0 (Trace.recorded ()))

let test_trace_instant_ts_fallback =
  with_obs ~trace:true (fun () ->
      Trace.span ~core:0 ~cat:"t" ~name:"s" ~ts:123 ~dur:7 ();
      Trace.instant ~core:0 ~cat:"t" ~name:"i" ();
      match List.rev (Trace.events ()) with
      | i :: _ ->
          (* Un-timestamped instants land at the end of the latest event,
             keeping causal order. *)
          Alcotest.(check int) "instant lands after last recorded event" 130
            i.Trace.ts
      | [] -> Alcotest.fail "no events recorded")

let test_chrome_export_shape =
  with_obs ~trace:true (fun () ->
      Trace.span ~core:1 ~cat:"kernel" ~name:"domain_switch" ~ts:10 ~dur:5
        ~args:[ ("flush", Trace.Int 3); ("why", Trace.Str "a\"b\\c") ]
        ();
      Trace.instant ~ts:12 ~core:0 ~cat:"klog" ~name:"harness_checkpoint" ();
      let f = Filename.temp_file "tp_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove f)
        (fun () ->
          Trace.export_chrome_file f;
          let ic = open_in f in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          let has sub =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "traceEvents present" true (has "\"traceEvents\"");
          Alcotest.(check bool) "complete span phase" true (has "\"ph\":\"X\"");
          Alcotest.(check bool) "instant phase" true (has "\"ph\":\"i\"");
          Alcotest.(check bool) "escaped string arg" true (has "a\\\"b\\\\c");
          Alcotest.(check bool) "thread metadata" true (has "thread_name")))

let test_klog_events_become_instants =
  with_obs ~trace:true (fun () ->
      Tp_kernel.Klog.harness_checkpoint ~now:55 ~chunk:2 ~collected:17 ();
      Tp_kernel.Klog.harness_degraded ~now:90 ~reason:"test" ~collected:17 ();
      let names =
        List.map (fun e -> (e.Trace.name, e.Trace.ts)) (Trace.events ())
      in
      Alcotest.(check (list (pair string int)))
        "harness events land in the trace at their clock"
        [ ("harness_checkpoint", 55); ("harness_degraded", 90) ]
        names)

(* --- pad-slack profiler -------------------------------------------- *)

let test_padprof_accounting =
  with_obs ~counters:true (fun () ->
      Padprof.record ~ki:3 ~pad:1000 ~padded:true ~total:1000 ~flush:200
        ~pad_wait:400;
      Padprof.record ~ki:3 ~pad:1000 ~padded:true ~total:1100 ~flush:250
        ~pad_wait:0;
      (* overrun *)
      Padprof.record ~ki:7 ~pad:0 ~padded:false ~total:300 ~flush:0 ~pad_wait:0;
      match Padprof.images () with
      | [ a; b ] ->
          Alcotest.(check int) "sorted by image id" 3 a.Padprof.im_ki;
          Alcotest.(check int) "switches" 2 a.Padprof.im_n;
          Alcotest.(check int) "padded" 2 a.Padprof.im_padded;
          Alcotest.(check int) "overruns" 1 a.Padprof.im_overruns;
          Alcotest.(check int) "worst unpadded" 1100 a.Padprof.im_worst_unpadded;
          Alcotest.(check (option int))
            "headroom = pad - worst unpadded"
            (Some (-100))
            (Padprof.headroom a);
          Alcotest.(check int) "unpadded image" 0 b.Padprof.im_padded;
          Alcotest.(check (option int))
            "no headroom without padded switches" None (Padprof.headroom b)
      | l -> Alcotest.failf "expected 2 images, got %d" (List.length l))

let test_padprof_gated =
  with_obs ~counters:false (fun () ->
      Padprof.record ~ki:1 ~pad:10 ~padded:true ~total:10 ~flush:1 ~pad_wait:1;
      Alcotest.(check int) "no recording with counters off" 0
        (List.length (Padprof.images ())))

(* --- log-bucketed histogram ---------------------------------------- *)

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check int) "empty percentile" 0 (Histogram.percentile h 50.0);
  List.iter (Histogram.record h) [ 0; 1; 7; 8; 100; 100; 5000; -3 ];
  Alcotest.(check int) "count" 8 (Histogram.count h);
  Alcotest.(check int) "negative clamped into sum" 5216 (Histogram.sum h);
  Alcotest.(check int) "min" 0 (Histogram.min_ h);
  Alcotest.(check int) "max" 5000 (Histogram.max_ h);
  Alcotest.(check int) "p100 is exact max" 5000 (Histogram.percentile h 100.0);
  Alcotest.(check int) "p0 is exact min" 0 (Histogram.percentile h 0.0);
  (* Small values are exact buckets. *)
  Alcotest.(check int) "value 7 exact" 7 (Histogram.upper_of (Histogram.index_of 7));
  (* Bucket upper bound carries <= 12.5% relative error. *)
  let p90 = Histogram.percentile h 90.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p90 (%d) within an octave-eighth of 5000" p90)
    true
    (float_of_int p90 >= 5000.0 *. 0.875 && p90 <= 5000)

let qcheck_histogram_bucket_invariants =
  QCheck.Test.make ~name:"histogram buckets contain their values" ~count:500
    QCheck.(int_bound 2_000_000_000)
    (fun v ->
      let i = Histogram.index_of v in
      let upper = Histogram.upper_of i in
      (* v lands in bucket i: upper bound covers it, previous doesn't. *)
      v <= upper && (i = 0 || Histogram.upper_of (i - 1) < v))

let qcheck_histogram_merge_order_independent =
  QCheck.Test.make
    ~name:"histogram merge is order-independent (any worker order)" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 5)
           (list_of_size Gen.(int_range 0 30) (int_bound 100_000)))
        (list_of_size Gen.(int_range 0 20) small_nat))
    (fun (worker_values, shuffle_seed) ->
      let workers =
        List.map
          (fun vs ->
            let h = Histogram.create () in
            List.iter (Histogram.record h) vs;
            h)
          worker_values
      in
      let fold order =
        let into = Histogram.create () in
        List.iter (fun h -> Histogram.merge ~into h) order;
        Histogram.snapshot into
      in
      (* A deterministic permutation derived from the seed list. *)
      let permuted =
        List.fold_left
          (fun acc s ->
            let n = List.length acc in
            if n < 2 then acc
            else
              let k = s mod n in
              let x = List.nth acc k in
              x :: List.filteri (fun i _ -> i <> k) acc)
          workers shuffle_seed
      in
      fold workers = fold permuted)

let qcheck_histogram_snapshot_roundtrip =
  QCheck.Test.make ~name:"histogram snapshot/of_snapshot round-trips"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (int_bound 1_000_000))
    (fun vs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) vs;
      let s = Histogram.snapshot h in
      Histogram.snapshot (Histogram.of_snapshot s) = s)

(* Absorbing worker counter exports in any fixed order yields identical
   snapshots — the determinism contract behind [-j N].  Each ordering
   runs in a fresh spawned domain because the counter registry is
   domain-local. *)
let qcheck_counter_absorb_order_independent =
  QCheck.Test.make ~name:"counter absorb is order-independent" ~count:30
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 4)
           (list_of_size Gen.(int_range 0 10) (int_bound 100)))
        (list_of_size Gen.(int_range 0 8) small_nat))
    (fun (worker_adds, shuffle_seed) ->
      let snapshot_after order =
        Domain.join
          (Domain.spawn (fun () ->
               Ctl.set_counters true;
               Fun.protect
                 ~finally:(fun () -> Ctl.all_off ())
                 (fun () ->
                   let s = Counter.make_set "test.absorb" in
                   let _c = Counter.counter s "c" in
                   Counter.register s;
                   let exports =
                     List.map
                       (fun adds ->
                         Domain.join
                           (Domain.spawn (fun () ->
                                Ctl.set_counters true;
                                let ws = Counter.make_set "test.absorb" in
                                let wc = Counter.counter ws "c" in
                                Counter.register ws;
                                List.iter (Counter.add wc) adds;
                                Counter.export ())))
                       order
                   in
                   List.iter Counter.absorb exports;
                   Counter.snapshot s)))
      in
      let permuted =
        List.fold_left
          (fun acc s ->
            let n = List.length acc in
            if n < 2 then acc
            else
              let k = s mod n in
              let x = List.nth acc k in
              x :: List.filteri (fun i _ -> i <> k) acc)
          worker_adds shuffle_seed
      in
      snapshot_after worker_adds = snapshot_after permuted)

(* --- metrics registry ----------------------------------------------- *)

let with_metrics f () =
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      Metrics.reset ();
      Metrics.set_enabled true;
      f ())

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_metrics_disabled_no_op () =
  Metrics.set_enabled false;
  Metrics.reset ();
  let c = Metrics.counter "tpsim_test_off_total" in
  Metrics.inc c;
  Metrics.inc c ~by:41;
  Alcotest.(check (option (float 0.0)))
    "disabled counter records nothing" None (Metrics.value c)

let test_metrics_render_shape =
  with_metrics (fun () ->
      let c = Metrics.counter ~help:"A counter." "tpsim_test_total" in
      let g = Metrics.gauge ~help:"A gauge." "tpsim_test_gauge" in
      let h = Metrics.histogram ~help:"A histogram." "tpsim_test_us" in
      Metrics.inc c ~labels:[ ("k", "a\"b\\c\nd") ] ~by:3;
      Metrics.inc c ~labels:[ ("k", "plain") ];
      Metrics.set g 2.5;
      List.iter (Metrics.observe h) [ 1; 10; 100 ];
      let text = Metrics.render () in
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "render has %s" (String.escaped sub))
            true (contains_sub text sub))
        [
          "# TYPE tpsim_test_total counter";
          "# HELP tpsim_test_total A counter.";
          "tpsim_test_total{k=\"a\\\"b\\\\c\\nd\"} 3";
          "tpsim_test_total{k=\"plain\"} 1";
          "# TYPE tpsim_test_gauge gauge";
          "tpsim_test_gauge 2.5";
          "# TYPE tpsim_test_us histogram";
          "tpsim_test_us_bucket{le=\"+Inf\"} 3";
          "tpsim_test_us_sum 111";
          "tpsim_test_us_count 3";
          "# EOF";
        ];
      (* Cumulative buckets must be monotone and end at the count. *)
      let e = Tp_serve.Top.parse text in
      let les =
        List.filter_map
          (fun s ->
            if s.Tp_serve.Top.s_name = "tpsim_test_us_bucket" then
              Some s.Tp_serve.Top.s_value
            else None)
          e.Tp_serve.Top.e_samples
      in
      Alcotest.(check bool)
        "bucket series is monotone non-decreasing" true
        (les <> []
        && fst
             (List.fold_left
                (fun (ok, prev) v -> (ok && v >= prev, v))
                (true, 0.0) les))
      |> ignore;
      Alcotest.(check bool) "kind mismatch rejected" true
        (match Metrics.gauge "tpsim_test_total" with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_metrics_roundtrip_via_top =
  with_metrics (fun () ->
      let h = Metrics.histogram "tpsim_rt_us" in
      for _ = 1 to 60 do Metrics.observe h 100 done;
      for _ = 1 to 40 do Metrics.observe h 10_000 done;
      let e = Tp_serve.Top.parse (Metrics.render ()) in
      let q p = Tp_serve.Top.quantile e "tpsim_rt_us" p in
      (* p50 lands in the 100-cycle bucket, p99 in the 10k one, with
         bucket-granularity (12.5%) error. *)
      (match q 50.0 with
      | Some v -> Alcotest.(check bool) "p50 near 100" true (v >= 100.0 && v < 120.0)
      | None -> Alcotest.fail "no p50");
      match q 99.0 with
      | Some v ->
          Alcotest.(check bool)
            (Printf.sprintf "p99 (%g) near 10000" v)
            true
            (v >= 10_000.0 *. 0.875 && v <= 10_000.0 *. 1.125)
      | None -> Alcotest.fail "no p99")

(* --- event log ------------------------------------------------------ *)

let test_eventlog_rotation () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tp-test-elog-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir "events.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let t = Eventlog.open_ ~max_bytes:1024 ~keep:2 path in
      let payload = String.make 100 'x' in
      for i = 1 to 60 do
        Eventlog.write t ~event:"tick"
          [ ("i", Tp_util.Json.Num (float_of_int i));
            ("pad", Tp_util.Json.Str payload) ]
      done;
      Eventlog.close t;
      Alcotest.(check bool) "live file exists" true (Sys.file_exists path);
      Alcotest.(check bool)
        "rotated generation exists" true
        (Sys.file_exists (path ^ ".1"));
      Alcotest.(check bool)
        "keep bounds generations" false
        (Sys.file_exists (path ^ ".3"));
      (* Every line of every generation parses and carries ts+event. *)
      let files =
        List.filter Sys.file_exists [ path; path ^ ".1"; path ^ ".2" ]
      in
      let lines =
        List.concat_map
          (fun f ->
            let ic = open_in f in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> In_channel.input_lines ic))
          files
      in
      Alcotest.(check bool) "rotation kept a bounded tail" true
        (List.length lines < 60);
      List.iter
        (fun l ->
          match Tp_util.Json.parse_opt l with
          | Some j ->
              Alcotest.(check bool) "line has ts and event" true
                (Tp_util.Json.member "ts" j <> None
                && Tp_util.Json.member "event" j <> None)
          | None -> Alcotest.failf "unparseable event line: %s" l)
        lines;
      (* Writes after close are silent no-ops. *)
      Eventlog.write t ~event:"late" [])

(* --- pad-slack percentiles ------------------------------------------ *)

let test_padprof_slack_percentiles =
  with_obs ~counters:true (fun () ->
      for slack = 1 to 100 do
        Padprof.record ~ki:5 ~pad:1000 ~padded:true ~total:1000 ~flush:0
          ~pad_wait:slack
      done;
      match Padprof.images () with
      | [ im ] -> (
          match Padprof.slack_percentiles im with
          | None -> Alcotest.fail "no percentiles from padded switches"
          | Some (p50, p99) ->
              Alcotest.(check bool)
                (Printf.sprintf "p50 (%d) near 50" p50)
                true
                (p50 >= 44 && p50 <= 57);
              Alcotest.(check bool)
                (Printf.sprintf "p99 (%d) near 99" p99)
                true
                (p99 >= 87 && p99 <= 100);
              let b = Buffer.create 512 in
              let ppf = Format.formatter_of_buffer b in
              Padprof.report ppf ();
              Format.pp_print_flush ppf ();
              Alcotest.(check bool)
                "report carries the slack columns" true
                (contains_sub (Buffer.contents b) "slack p50"
                && contains_sub (Buffer.contents b) "slack p99"))
      | l -> Alcotest.failf "expected 1 image, got %d" (List.length l))

(* The two ASCII distribution plots, byte for byte: samples that clamp
   into both edge bins (below 0, at and above the range's top) and
   empty bins between the occupied ones. *)
let test_padprof_plot_block =
  let expected =
    String.concat "\n"
      [
        "image #2 pad-slack distribution (pad_wait cycles, 8 samples):";
        "     50.00 | ######################################## 3";
        "    150.00 | ########################## 2";
        "    250.00 |  0";
        "    350.00 |  0";
        "    450.00 |  0";
        "    550.00 |  0";
        "    650.00 |  0";
        "    750.00 |  0";
        "    850.00 |  0";
        "    950.00 |  0";
        "   1050.00 |  0";
        "   1150.00 |  0";
        "   1250.00 |  0";
        "   1350.00 |  0";
        "   1450.00 |  0";
        "   1550.00 | ######################################## 3";
        "";
        "image #5 switch-total distribution (no pad, 4 samples):";
        "      9.38 | ######################################## 2";
        "     28.12 |  0";
        "     46.88 |  0";
        "     65.62 |  0";
        "     84.38 |  0";
        "    103.12 |  0";
        "    121.88 |  0";
        "    140.62 |  0";
        "    159.38 | #################### 1";
        "    178.12 |  0";
        "    196.88 |  0";
        "    215.62 |  0";
        "    234.38 |  0";
        "    253.12 |  0";
        "    271.88 |  0";
        "    290.62 | #################### 1";
        "";
        "";
      ]
  in
  with_obs ~counters:true (fun () ->
      List.iter
        (fun pad_wait ->
          Padprof.record ~ki:2 ~pad:1600 ~padded:true ~total:1600 ~flush:0
            ~pad_wait)
        [ -200; 0; 99; 100; 150; 1599; 1600; 5000 ];
      List.iter
        (fun total ->
          Padprof.record ~ki:5 ~pad:0 ~padded:false ~total ~flush:0
            ~pad_wait:0)
        [ 300; 150; 10; 0 ];
      let b = Buffer.create 2048 in
      let ppf = Format.formatter_of_buffer b in
      Padprof.report ppf ();
      Format.pp_print_flush ppf ();
      let s = Buffer.contents b in
      let rec find i =
        if i + 7 > String.length s then Alcotest.fail "no plot block"
        else if String.sub s i 7 = "image #" then i
        else find (i + 1)
      in
      let i = find 0 in
      Alcotest.(check string)
        "plot block" expected
        (String.sub s i (String.length s - i)))

let test_padprof_no_padded_no_percentiles =
  with_obs ~counters:true (fun () ->
      Padprof.record ~ki:2 ~pad:0 ~padded:false ~total:300 ~flush:0 ~pad_wait:0;
      match Padprof.images () with
      | [ im ] ->
          Alcotest.(check bool)
            "unpadded image has no slack percentiles" true
            (Padprof.slack_percentiles im = None)
      | l -> Alcotest.failf "expected 1 image, got %d" (List.length l))

(* --- harness metadata ---------------------------------------------- *)

let test_harness_switch_counters =
  with_obs ~counters:true (fun () ->
      let open Tp_kernel in
      let b = Tp_core.Scenario.boot Tp_core.Scenario.Protected sabre in
      let spec =
        {
          (Tp_attacks.Harness.default_spec sabre) with
          Tp_attacks.Harness.samples = 40;
          noise_sigma = 0.0;
        }
      in
      let rng = Tp_util.Rng.create ~seed:3 in
      let sender _ctx _sym = () in
      let receiver ctx = Some (float_of_int (Uctx.now ctx land 0xff)) in
      let r = Tp_attacks.Harness.run_pair_result b ~sender ~receiver spec ~rng in
      let sw = r.Tp_attacks.Harness.switch_counters in
      Alcotest.(check bool)
        "switch counters counted the collection" true
        (Counter.total sw > 0);
      Alcotest.(check bool)
        "delta is per-counter non-negative" true
        (List.for_all (fun (_, v) -> v >= 0) sw))

let suite =
  [
    Alcotest.test_case "table2 unperturbed by observability" `Quick
      test_table2_unperturbed;
    Alcotest.test_case "switch path unperturbed by observability" `Quick
      test_switch_unperturbed;
    Alcotest.test_case "counters off never count" `Quick
      test_counters_off_never_count;
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "registry replace-on-name" `Quick test_registry_replace;
    Alcotest.test_case "trace ring overwrite" `Quick test_trace_ring_overwrite;
    Alcotest.test_case "trace disabled records nothing" `Quick
      test_trace_disabled_records_nothing;
    Alcotest.test_case "instant ts fallback" `Quick
      test_trace_instant_ts_fallback;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "klog events become instants" `Quick
      test_klog_events_become_instants;
    Alcotest.test_case "padprof accounting" `Quick test_padprof_accounting;
    Alcotest.test_case "padprof gated on counters" `Quick test_padprof_gated;
    Alcotest.test_case "harness switch-counter metadata" `Quick
      test_harness_switch_counters;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "metrics disabled records nothing" `Quick
      test_metrics_disabled_no_op;
    Alcotest.test_case "metrics render shape" `Quick test_metrics_render_shape;
    Alcotest.test_case "metrics quantiles round-trip via top" `Quick
      test_metrics_roundtrip_via_top;
    Alcotest.test_case "event log rotation" `Quick test_eventlog_rotation;
    Alcotest.test_case "padprof slack percentiles" `Quick
      test_padprof_slack_percentiles;
    Alcotest.test_case "padprof slack absent without padding" `Quick
      test_padprof_no_padded_no_percentiles;
    Alcotest.test_case "padprof plot block pinned" `Quick
      test_padprof_plot_block;
    QCheck_alcotest.to_alcotest qcheck_delta_non_negative;
    QCheck_alcotest.to_alcotest qcheck_snapshot_reset_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_histogram_bucket_invariants;
    QCheck_alcotest.to_alcotest qcheck_histogram_merge_order_independent;
    QCheck_alcotest.to_alcotest qcheck_histogram_snapshot_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_counter_absorb_order_independent;
  ]
