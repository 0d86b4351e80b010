(* Tests for Tp_util: PRNG determinism and distribution, statistics,
   table rendering; and the equal-width histogram binning that
   Padprof's ASCII plots do locally. *)

open Tp_util

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  (* The split stream must not simply equal the parent's continuation. *)
  let xs = Array.init 16 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 16 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split differs" true (xs <> ys)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in [lo,hi]" true (v >= -5 && v <= 5)
  done

let test_rng_float_range () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create ~seed:6 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian r ~mu:3.0 ~sigma:2.0) in
  let m = Stats.mean xs and s = Stats.std xs in
  Alcotest.(check bool) "mean ~ 3" true (Float.abs (m -. 3.0) < 0.1);
  Alcotest.(check bool) "std ~ 2" true (Float.abs (s -. 2.0) < 0.1)

let test_rng_shuffle_permutes () =
  let r = Rng.create ~seed:8 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 100 Fun.id)

let test_rng_permutation () =
  let r = Rng.create ~seed:9 in
  let p = Rng.permutation r 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 Fun.id) sorted

let test_stats_mean_var () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean a);
  Alcotest.(check (float 1e-9)) "variance" (5.0 /. 3.0) (Stats.variance a);
  Alcotest.(check (float 1e-9)) "sum" 10.0 (Stats.sum a)

let test_stats_singleton () =
  Alcotest.(check (float 1e-9)) "var of singleton" 0.0 (Stats.variance [| 5.0 |]);
  Alcotest.(check (float 1e-9)) "median" 5.0 (Stats.median [| 5.0 |])

let test_stats_median_even () =
  Alcotest.(check (float 1e-9)) "median even" 2.5
    (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_stats_percentile () =
  let a = Array.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile a 0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile a 50.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile a 100.0);
  Alcotest.(check (float 1e-9)) "p25" 25.0 (Stats.percentile a 25.0)

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_does_not_mutate () =
  let a = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.median a);
  ignore (Stats.percentile a 50.0);
  Alcotest.(check (array (float 0.0))) "unchanged" [| 3.0; 1.0; 2.0 |] a

(* Equal-width histogram behind Padprof's plots: 16 bins over
   [0, pad], out-of-range samples clamped into the edge bins.  Records
   pad waits of image #2 with a 1600-cycle pad and returns the plot's
   rows as (bin centre, count). *)
let padprof_plot_rows pad_waits =
  let rows = ref [] in
  Test_obs.with_obs ~counters:true
    (fun () ->
      List.iter
        (fun pad_wait ->
          Tp_obs.Padprof.record ~ki:2 ~pad:1600 ~padded:true ~total:1600
            ~flush:0 ~pad_wait)
        pad_waits;
      let s =
        Format.asprintf "%a" (Tp_obs.Padprof.report ?cycles_to_us:None) ()
      in
      let lines = String.split_on_char '\n' s in
      let rec after_header = function
        | [] -> Alcotest.fail "no pad-slack plot"
        | l :: rest ->
            if String.length l > 9 && String.sub l 0 9 = "image #2 " then rest
            else after_header rest
      in
      let parse l =
        match String.split_on_char '|' l with
        | [ centre; bar ] ->
            let count =
              List.filter (( <> ) "") (String.split_on_char ' ' bar)
              |> List.rev |> List.hd |> int_of_string
            in
            (float_of_string (String.trim centre), count)
        | _ -> Alcotest.failf "not a plot row: %S" l
      in
      rows :=
        List.filteri (fun i _ -> i < 16) (after_header lines) |> List.map parse)
    ();
  !rows

let test_histogram_counts () =
  let rows = padprof_plot_rows [ 50; 150; 160; 1550; -300; 4200 ] in
  let count i = snd (List.nth rows i) in
  Alcotest.(check int) "bins" 16 (List.length rows);
  Alcotest.(check int) "bin 0 (incl clamped low)" 2 (count 0);
  Alcotest.(check int) "bin 1" 2 (count 1);
  Alcotest.(check int) "bin 15 (incl clamped high)" 2 (count 15);
  Alcotest.(check int) "total" 6
    (List.fold_left (fun acc (_, c) -> acc + c) 0 rows)

let test_histogram_bin_center () =
  let rows = padprof_plot_rows [ 800 ] in
  let centre i = fst (List.nth rows i) in
  Alcotest.(check (float 1e-9)) "center of bin 0" 50.0 (centre 0);
  Alcotest.(check (float 1e-9)) "center of bin 15" 1550.0 (centre 15)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_table_renders () =
  let t = Table.create ~title:"T" ~headers:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_sep t;
  Table.add_row t [ "333" ];
  let s = Format.asprintf "%a" Table.pp t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "contains 333" true (contains_substring s "333")

let qcheck_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (a, (p1, p2)) ->
      QCheck.assume (Array.length a > 0);
      let lo = Stdlib.min p1 p2 and hi = Stdlib.max p1 p2 in
      Tp_util.Stats.percentile a lo <= Tp_util.Stats.percentile a hi +. 1e-9)

(* [Stats] sorts with [Float.compare]; polymorphic [compare] defines the
   same order on floats (nan first and equal to itself, -0 equal to
   +0), so percentiles must match a [List.sort compare] reference bit
   for bit, ties, zeros, infinities and nans included. *)
let qcheck_percentile_matches_compare_sort =
  let elt =
    QCheck.Gen.(
      oneof
        [
          oneofl [ Float.nan; 0.0; -0.0; infinity; neg_infinity; 1.0; -1.0 ];
          map float_of_int (int_range (-3) 3);
          float_range (-100.) 100.;
        ])
  in
  QCheck.Test.make ~name:"percentile = List.sort compare reference, bitwise"
    ~count:300
    QCheck.(
      pair
        (make
           ~print:Print.(array float)
           Gen.(array_size (int_range 1 30) elt))
        (float_range 0. 100.))
    (fun (a, p) ->
      let reference p =
        let b = Array.of_list (List.sort compare (Array.to_list a)) in
        let n = Array.length b in
        if n = 1 then b.(0)
        else begin
          let rank = p /. 100.0 *. float_of_int (n - 1) in
          let lo = int_of_float (Float.floor rank) in
          let hi = Stdlib.min (lo + 1) (n - 1) in
          let frac = rank -. float_of_int lo in
          b.(lo) +. (frac *. (b.(hi) -. b.(lo)))
        end
      in
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      List.for_all
        (fun p -> same (reference p) (Tp_util.Stats.percentile a p))
        [ p; 0.0; 25.0; 50.0; 75.0; 100.0 ])

let qcheck_mean_bounds =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun a ->
      QCheck.assume (Array.length a > 0);
      let m = Tp_util.Stats.mean a in
      m >= Tp_util.Stats.min a -. 1e-9 && m <= Tp_util.Stats.max a +. 1e-9)

let qcheck_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (array small_int))
    (fun (seed, a) ->
      let b = Array.copy a in
      Tp_util.Rng.shuffle (Tp_util.Rng.create ~seed) b;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

(* Literals must match exactly: the campaign protocol reads socket
   input through this parser, so a misspelt [true]/[false]/[null]
   fails closed instead of parsing as the word it starts like. *)
let test_json_bad_literals () =
  List.iter
    (fun s ->
      match Tp_util.Json.parse s with
      | v ->
          Alcotest.failf "%S accepted as %s" s (Tp_util.Json.to_string v)
      | exception Tp_util.Json.Bad _ -> ())
    [ {|{"a":txyz}|}; "nope"; "[fxxxx]"; "tru" ];
  Alcotest.(check string)
    "exact literals still parse" {|[true,false,null]|}
    (Tp_util.Json.to_string (Tp_util.Json.parse " [true, false ,null] "))

(* RFC 8259 §7: a control byte inside a string must be escaped.  Every
   printer here escapes them, so a raw one means a corrupt or foreign
   document, and parsing fails closed. *)
let test_json_rejects_raw_control_bytes () =
  List.iter
    (fun s ->
      match Tp_util.Json.parse s with
      | v ->
          Alcotest.failf "%S accepted as %s" s (Tp_util.Json.to_string v)
      | exception Tp_util.Json.Bad _ -> ())
    [ "\"a\001b\nc\""; "[\"\t\"]"; "{\"k\x1f\":1}"; "\"\000\"" ];
  Alcotest.(check string)
    "escaped control bytes still parse" "a\001b\nc\t"
    (Option.get
       (Tp_util.Json.str (Tp_util.Json.parse {|"a\u0001b\nc\t"|})));
  Alcotest.(check string)
    "control whitespace between tokens still parses" {|[1,2]|}
    (Tp_util.Json.to_string (Tp_util.Json.parse "\t[1,\n2]\r\n"))

(* RFC 8259 §6: no plus sign, no leading zero, and digits on both
   sides of a decimal point.  A lenient reader would take each of
   these as a number. *)
let test_json_rejects_bad_numbers () =
  List.iter
    (fun s ->
      match Tp_util.Json.parse s with
      | v ->
          Alcotest.failf "%S accepted as %s" s (Tp_util.Json.to_string v)
      | exception Tp_util.Json.Bad _ -> ())
    [ "+1"; ".5"; "01"; "1."; "-"; "[-01]"; "1e"; "1.e3"; "{\"a\":+0}" ];
  Alcotest.(check string)
    "RFC numbers still parse" {|[0,-0,0.5,-1.25,100,1000,1e+20,0.001]|}
    (Tp_util.Json.to_string
       (Tp_util.Json.parse "[0,-0,0.5,-1.25,1e2,1E+3,1e20,1e-3]"))

(* A \u escape names a UTF-16 code unit: a surrogate pair is one
   character, and half a pair is none. *)
let test_json_surrogates () =
  List.iter
    (fun s ->
      match Tp_util.Json.parse s with
      | v ->
          Alcotest.failf "%S accepted as %s" s (Tp_util.Json.to_string v)
      | exception Tp_util.Json.Bad _ -> ())
    [ {|"\ud800"|}; {|"\udc00"|}; {|"\ud800x"|}; {|"\ud800\u0041"|};
      {|"\udbff\ud800"|} ];
  Alcotest.(check string)
    "a pair is one 4-byte character" "\xf0\x9f\x98\x80"
    (Option.get (Tp_util.Json.str (Tp_util.Json.parse {|"\ud83d\ude00"|})));
  Alcotest.(check string)
    "BMP escapes still decode" "\xc3\xa9\xe2\x82\xac"
    (Option.get (Tp_util.Json.str (Tp_util.Json.parse {|"\u00e9\u20ac"|})))

(* Strings drawn with plenty of control bytes, besides arbitrary ones. *)
let json_string_gen =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (1, map Char.chr (int_bound 0x1f)); (2, char) ])
      (int_bound 8))

let json_value_gen =
  let open QCheck.Gen in
  let module J = Tp_util.Json in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun i -> J.Num (float_of_int i /. 4.)) small_signed_int;
               map (fun s -> J.Str s) json_string_gen;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.Arr l) (list_size (int_bound 4) (self (n - 1))));
               ( 1,
                 map
                   (fun kvs -> J.Obj kvs)
                   (list_size (int_bound 4) (pair json_string_gen (self (n - 1))))
               );
             ])

let qcheck_json_round_trip =
  QCheck.Test.make ~name:"json parse inverts to_string" ~count:300
    (QCheck.make ~print:Tp_util.Json.to_string json_value_gen)
    (fun v -> Tp_util.Json.(parse (to_string v)) = v)

(* Arbitrary bytes, weighted towards JSON's own punctuation so that
   inputs get past the first byte: the parser either returns a value
   or raises [Bad], never anything else. *)
let qcheck_json_fails_closed =
  QCheck.Test.make ~name:"json parse raises only Bad" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         string_size
           ~gen:
             (frequency
                [
                  (3, oneofl (List.of_seq (String.to_seq {|{}[]":,\u0aef-.e+ |})));
                  (1, char);
                ])
           (int_bound 24)))
    (fun s ->
      match Tp_util.Json.parse s with
      | _ -> true
      | exception Tp_util.Json.Bad _ -> true)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int_in" `Quick test_rng_int_in;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng permutation" `Quick test_rng_permutation;
    Alcotest.test_case "stats mean/var" `Quick test_stats_mean_var;
    Alcotest.test_case "stats singleton" `Quick test_stats_singleton;
    Alcotest.test_case "stats median even" `Quick test_stats_median_even;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats pure" `Quick test_stats_does_not_mutate;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "histogram centers" `Quick test_histogram_bin_center;
    Alcotest.test_case "table renders" `Quick test_table_renders;
    QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
    QCheck_alcotest.to_alcotest qcheck_percentile_matches_compare_sort;
    QCheck_alcotest.to_alcotest qcheck_mean_bounds;
    QCheck_alcotest.to_alcotest qcheck_shuffle_preserves_multiset;
    Alcotest.test_case "json rejects bad literals" `Quick
      test_json_bad_literals;
    Alcotest.test_case "json rejects raw control bytes" `Quick
      test_json_rejects_raw_control_bytes;
    Alcotest.test_case "json rejects non-RFC numbers" `Quick
      test_json_rejects_bad_numbers;
    Alcotest.test_case "json surrogate escapes" `Quick test_json_surrogates;
    QCheck_alcotest.to_alcotest qcheck_json_round_trip;
    QCheck_alcotest.to_alcotest qcheck_json_fails_closed;
  ]
