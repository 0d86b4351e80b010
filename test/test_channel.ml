(* Tests for the MI measurement toolchain: KDE, continuous MI, the
   shuffle-based leakage test, channel matrices. *)

open Tp_channel

let rng () = Tp_util.Rng.create ~seed:1234

let test_kde_integrates_to_one () =
  let r = rng () in
  let xs = Array.init 2000 (fun _ -> Tp_util.Rng.gaussian r ~mu:0.0 ~sigma:1.0) in
  let grid = { Kde.lo = -6.0; hi = 6.0; points = 512 } in
  let d = Kde.estimate grid xs in
  let integral = Array.fold_left ( +. ) 0.0 d *. Kde.grid_step grid in
  Alcotest.(check bool) "integral ~ 1" true (Float.abs (integral -. 1.0) < 0.02)

let test_kde_peak_location () =
  let r = rng () in
  let xs = Array.init 3000 (fun _ -> Tp_util.Rng.gaussian r ~mu:2.0 ~sigma:0.3) in
  let grid = { Kde.lo = -1.0; hi = 5.0; points = 600 } in
  let d = Kde.estimate grid xs in
  let peak = ref 0 in
  Array.iteri (fun i v -> if v > d.(!peak) then peak := i) d;
  Alcotest.(check bool) "peak near 2" true
    (Float.abs (Kde.grid_position grid !peak -. 2.0) < 0.2)

let test_kde_degenerate_data () =
  (* Constant samples must not blow up: bandwidth floors to the grid
     step and yields a narrow proper density. *)
  let xs = Array.make 100 5.0 in
  let grid = { Kde.lo = 0.0; hi = 10.0; points = 256 } in
  let d = Kde.estimate grid xs in
  let integral = Array.fold_left ( +. ) 0.0 d *. Kde.grid_step grid in
  Alcotest.(check bool) "finite and ~1" true
    (Float.abs (integral -. 1.0) < 0.05 && Array.for_all Float.is_finite d)

let test_kde_edge_binning () =
  (* Nearest-index binning: half distances round up, uniformly over the
     axis, and out-of-range samples clamp to the end bins.  A single
     sample with a narrow kernel puts the density peak on its bin. *)
  let grid = { Kde.lo = 0.0; hi = 10.0; points = 11 } in
  let peak_of x =
    let d = Kde.estimate grid ~bandwidth:0.1 [| x |] in
    let peak = ref 0 in
    Array.iteri (fun i v -> if v > d.(!peak) then peak := i) d;
    !peak
  in
  Alcotest.(check int) "exact grid point" 7 (peak_of 7.0);
  Alcotest.(check int) "half rounds up" 5 (peak_of 4.5);
  Alcotest.(check int) "below lo clamps to 0" 0 (peak_of (-3.0));
  Alcotest.(check int) "above hi clamps to last" 10 (peak_of 12.0);
  Alcotest.(check int) "just below a boundary" 4 (peak_of 4.4999)

let test_silverman_positive () =
  let r = rng () in
  let xs = Array.init 500 (fun _ -> Tp_util.Rng.gaussian r ~mu:0.0 ~sigma:3.0) in
  Alcotest.(check bool) "positive bandwidth" true (Kde.silverman_bandwidth xs > 0.0)

(* A perfect binary channel: input i -> output exactly i, far apart. *)
let perfect_channel n =
  {
    Mi.input = Array.init n (fun i -> i mod 2);
    output = Array.init n (fun i -> if i mod 2 = 0 then 0.0 else 100.0);
  }

let test_mi_perfect_binary () =
  let m = Mi.estimate (perfect_channel 2000) in
  Alcotest.(check bool) "~1 bit" true (Float.abs (m -. 1.0) < 0.05)

let test_mi_perfect_quaternary () =
  let n = 4000 in
  let s =
    {
      Mi.input = Array.init n (fun i -> i mod 4);
      output = Array.init n (fun i -> float_of_int (i mod 4) *. 50.0);
    }
  in
  let m = Mi.estimate s in
  Alcotest.(check bool) "~2 bits" true (Float.abs (m -. 2.0) < 0.1)

let test_mi_independent_is_zero () =
  let r = rng () in
  let n = 4000 in
  let s =
    {
      Mi.input = Array.init n (fun _ -> Tp_util.Rng.int r 4);
      output = Array.init n (fun _ -> Tp_util.Rng.gaussian r ~mu:10.0 ~sigma:2.0);
    }
  in
  let m = Mi.estimate s in
  Alcotest.(check bool) "~0 bits" true (m < 0.02)

let test_mi_constant_output_zero () =
  let n = 1000 in
  let s =
    { Mi.input = Array.init n (fun i -> i mod 3); output = Array.make n 7.0 }
  in
  Alcotest.(check (float 1e-6)) "exactly 0" 0.0 (Mi.estimate s)

let test_mi_single_symbol_zero () =
  let s = { Mi.input = Array.make 100 0; output = Array.init 100 float_of_int } in
  Alcotest.(check (float 1e-9)) "one symbol -> 0" 0.0 (Mi.estimate s)

let test_mi_noisy_channel_between () =
  (* Overlapping conditionals: 0 < MI < 1. *)
  let r = rng () in
  let n = 4000 in
  let input = Array.init n (fun _ -> Tp_util.Rng.int r 2) in
  let output =
    Array.map
      (fun i -> Tp_util.Rng.gaussian r ~mu:(float_of_int i) ~sigma:1.0)
      input
  in
  let m = Mi.estimate { Mi.input; output } in
  Alcotest.(check bool) "strictly between" true (m > 0.05 && m < 0.95)

let test_mi_uniform_weighting () =
  (* MI weights every symbol equally even with unbalanced samples. *)
  let n = 3000 in
  let input = Array.init n (fun i -> if i < 2700 then 0 else 1) in
  let output = Array.map (fun i -> float_of_int i *. 100.0) input in
  let m = Mi.estimate { Mi.input; output } in
  Alcotest.(check bool) "still ~1 bit" true (Float.abs (m -. 1.0) < 0.1)

let test_mi_permutation_destroys () =
  let r = rng () in
  let s = perfect_channel 2000 in
  let perm = Tp_util.Rng.permutation r 2000 in
  let m = Mi.evaluate (Mi.prepare s) ~perm in
  Alcotest.(check bool) "shuffled MI near 0" true (m < 0.05)

let test_leakage_detects_leak () =
  let r = rng () in
  let res = Leakage.test ~rng:r (perfect_channel 1500) in
  Alcotest.(check bool) "verdict = Leak" true (res.Leakage.verdict = Leakage.Leak);
  Alcotest.(check bool) "M > M0" true (res.Leakage.m > res.Leakage.m0)

let test_leakage_accepts_null () =
  let r = rng () in
  let n = 1500 in
  let s =
    {
      Mi.input = Array.init n (fun _ -> Tp_util.Rng.int r 4);
      output = Array.init n (fun _ -> Tp_util.Rng.gaussian r ~mu:0.0 ~sigma:1.0);
    }
  in
  let res = Leakage.test ~rng:r s in
  Alcotest.(check bool) "no leak verdict" true
    (res.Leakage.verdict = Leakage.No_evidence
    || res.Leakage.verdict = Leakage.Negligible)

let test_leakage_noisy_but_real_leak () =
  let r = rng () in
  let n = 2000 in
  let input = Array.init n (fun _ -> Tp_util.Rng.int r 2) in
  let output =
    Array.map
      (fun i -> Tp_util.Rng.gaussian r ~mu:(2.0 *. float_of_int i) ~sigma:1.0)
      input
  in
  let res = Leakage.test ~rng:r { Mi.input; output } in
  Alcotest.(check bool) "detected through noise" true
    (res.Leakage.verdict = Leakage.Leak)

(* Frozen outputs of the shuffle test: [Printf "%h"] of m, m0 and the
   shuffle mean/std on five fixed datasets.  The estimator may be made
   faster but never different — any changed bit in any of the 101 MI
   estimates fails here.  Shapes: the sweep-wide 16 symbols x 40 samples
   (sparse groups, some with one sample or none), 16 x 150, 4 symbols
   with only three distinct timings each (zero-IQR groups), a constant
   output (MI is pure rounding noise), and a single symbol. *)
let pinned_dataset ~seed ~n ~k f =
  let r = Tp_util.Rng.create ~seed in
  let input = Array.init n (fun _ -> Tp_util.Rng.int r k) in
  { Mi.input; output = Array.map (f r) input }

let pinned_datasets =
  [
    ( "16 symbols x 40, sparse",
      pinned_dataset ~seed:41 ~n:40 ~k:16 (fun r sym ->
          Float.round
            (Tp_util.Rng.gaussian r
               ~mu:(300.0 +. (4.0 *. float_of_int sym))
               ~sigma:6.0)),
      ( "0x1.433bf1b84765ep+1",
        "0x1.d5a422967ed16p+0",
        "0x1.764d35428f186p+0",
        "0x1.85241c46ec953p-3" ) );
    ( "16 symbols x 150",
      pinned_dataset ~seed:42 ~n:150 ~k:16 (fun r sym ->
          Tp_util.Rng.gaussian r
            ~mu:(1000.0 +. float_of_int (sym land 3))
            ~sigma:2.5),
      ( "0x1.50cb83d4b37e3p-2",
        "0x1.f7f6bfcbc3973p-2",
        "0x1.4117b3177d1fap-2",
        "0x1.7534eae8126c3p-4" ) );
    ( "4 symbols, few timings",
      pinned_dataset ~seed:43 ~n:200 ~k:4 (fun r sym ->
          float_of_int
            (120 + (8 * Tp_util.Rng.int r 3) + if sym = 2 then 8 else 0)),
      ( "0x1.6d78957b85778p-3",
        "0x1.9eba40cfcba6ep-5",
        "0x1.bb3f557cbd94cp-6",
        "0x1.8a16e91e56546p-7" ) );
    ( "constant output",
      pinned_dataset ~seed:44 ~n:60 ~k:3 (fun _ _ -> 77.0),
      ( "0x1.65aa74101a174p-53",
        "0x1.65aa74101a18cp-53",
        "0x1.65aa74101a17cp-53",
        "0x1.014a2883c8175p-102" ) );
    ( "single symbol",
      pinned_dataset ~seed:45 ~n:80 ~k:1 (fun r _ ->
          Tp_util.Rng.gaussian r ~mu:50.0 ~sigma:5.0),
      ("0x0p+0", "0x0p+0", "0x0p+0", "0x0p+0") );
  ]

let test_leakage_pinned_bits () =
  List.iteri
    (fun i (name, s, (m, m0, mean, std)) ->
      let r = Leakage.test ~rng:(Tp_util.Rng.create ~seed:(100 + i)) s in
      let h = Printf.sprintf "%h" in
      Alcotest.(check (list string))
        (name ^ ": m, m0, shuffle mean, shuffle std")
        [ m; m0; mean; std ]
        [
          h r.Leakage.m;
          h r.Leakage.m0;
          h r.Leakage.shuffle_mean;
          h r.Leakage.shuffle_std;
        ])
    pinned_datasets

let test_matrix_shape_and_stochastic () =
  let s = perfect_channel 400 in
  let m = Matrix.of_samples ~bins:10 s in
  Alcotest.(check int) "two symbols" 2 (Array.length m.Matrix.symbols);
  (* Columns are conditional distributions: they sum to 1. *)
  Array.iteri
    (fun j _ ->
      let col = Array.fold_left (fun acc row -> acc +. row.(j)) 0.0 m.Matrix.prob in
      Alcotest.(check (float 1e-9)) "column sums to 1" 1.0 col)
    m.Matrix.symbols

let test_matrix_perfect_channel_concentrated () =
  let s = perfect_channel 400 in
  let m = Matrix.of_samples ~bins:10 s in
  (* Symbol 0 -> lowest bin, symbol 1 -> highest bin. *)
  Alcotest.(check (float 1e-9)) "P(bin0|sym0)=1" 1.0 m.Matrix.prob.(0).(0);
  Alcotest.(check (float 1e-9)) "P(bin9|sym1)=1" 1.0 m.Matrix.prob.(9).(1)

let test_capacity_bsc () =
  (* Binary symmetric channel with crossover p: C = 1 - H(p). *)
  let h p = -.(p *. log p /. log 2.) -. ((1. -. p) *. log (1. -. p) /. log 2.) in
  List.iter
    (fun p ->
      let w = [| [| 1. -. p; p |]; [| p; 1. -. p |] |] in
      let c, dist = Capacity.blahut_arimoto w in
      Alcotest.(check (float 1e-3)) "BSC capacity" (1. -. h p) c;
      Alcotest.(check (float 1e-2)) "uniform maximiser" 0.5 dist.(0))
    [ 0.05; 0.1; 0.25; 0.45 ]

let test_capacity_z_channel () =
  (* Z-channel p=0.5: known capacity ~0.3219 bits, maximiser is not
     uniform — exactly what distinguishes capacity from uniform MI. *)
  let w = [| [| 1.0; 0.0 |]; [| 0.5; 0.5 |] |] in
  let c, dist = Capacity.blahut_arimoto w in
  Alcotest.(check (float 1e-3)) "Z-channel capacity" 0.3219 c;
  Alcotest.(check bool) "non-uniform maximiser" true (dist.(0) > 0.55)

let test_capacity_noiseless () =
  let w = [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |] in
  let c, _ = Capacity.blahut_arimoto w in
  Alcotest.(check (float 1e-3)) "log2 3" (log 3. /. log 2.) c

let test_capacity_useless_channel () =
  let w = [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |] |] in
  let c, _ = Capacity.blahut_arimoto w in
  Alcotest.(check (float 1e-6)) "zero capacity" 0.0 c

let test_capacity_rejects_bad_matrix () =
  match Capacity.blahut_arimoto [| [| 0.5; 0.2 |] |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_capacity_bounds_uniform_mi () =
  (* §5.1: capacity upper-bounds the uniform-input rate. *)
  let r = rng () in
  let n = 3000 in
  let input = Array.init n (fun _ -> Tp_util.Rng.int r 2) in
  let output =
    Array.map
      (fun i -> Tp_util.Rng.gaussian r ~mu:(1.5 *. float_of_int i) ~sigma:1.0)
      input
  in
  let s = { Mi.input; output } in
  let m = Mi.estimate s in
  let c = Capacity.of_samples s in
  Alcotest.(check bool)
    (Printf.sprintf "capacity %.3f >= uniform MI %.3f (within estimation slack)" c m)
    true
    (c >= m -. 0.05)

let qcheck_capacity_vs_mi =
  QCheck.Test.make ~name:"capacity ~ upper bound of uniform MI" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = Tp_util.Rng.create ~seed in
      let n = 600 in
      let input = Array.init n (fun _ -> Tp_util.Rng.int r 3) in
      let output =
        Array.map
          (fun i ->
            Tp_util.Rng.gaussian r ~mu:(2.0 *. float_of_int i) ~sigma:1.5)
          input
      in
      let s = { Mi.input; output } in
      Capacity.of_samples s >= Mi.estimate s -. 0.1)

let qcheck_mi_nonnegative_and_bounded =
  QCheck.Test.make ~name:"MI in [0, log2 k]" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(int_range 8 120) (pair (int_bound 3) (float_range 0. 100.))))
    (fun (_, pairs) ->
      QCheck.assume (List.length pairs >= 8);
      let input = Array.of_list (List.map fst pairs) in
      let output = Array.of_list (List.map snd pairs) in
      let k =
        List.length (List.sort_uniq compare (Array.to_list input))
      in
      let m = Mi.estimate { Mi.input; output } in
      m >= 0.0 && m <= (log (float_of_int (max 2 k)) /. log 2.0) +. 0.15)

let qcheck_leakage_m0_nonnegative =
  QCheck.Test.make ~name:"shuffle bound M0 >= 0" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let r = Tp_util.Rng.create ~seed in
      let n = 300 in
      let s =
        {
          Mi.input = Array.init n (fun _ -> Tp_util.Rng.int r 2);
          output = Array.init n (fun _ -> Tp_util.Rng.float r 10.0);
        }
      in
      let res = Leakage.test ~shuffles:20 ~rng:r s in
      res.Leakage.m0 >= 0.0 && res.Leakage.m >= 0.0)

let suite =
  [
    Alcotest.test_case "kde integrates to 1" `Quick test_kde_integrates_to_one;
    Alcotest.test_case "kde peak location" `Quick test_kde_peak_location;
    Alcotest.test_case "kde degenerate data" `Quick test_kde_degenerate_data;
    Alcotest.test_case "kde edge binning" `Quick test_kde_edge_binning;
    Alcotest.test_case "silverman positive" `Quick test_silverman_positive;
    Alcotest.test_case "mi perfect binary" `Quick test_mi_perfect_binary;
    Alcotest.test_case "mi perfect quaternary" `Quick test_mi_perfect_quaternary;
    Alcotest.test_case "mi independent ~ 0" `Quick test_mi_independent_is_zero;
    Alcotest.test_case "mi constant output" `Quick test_mi_constant_output_zero;
    Alcotest.test_case "mi single symbol" `Quick test_mi_single_symbol_zero;
    Alcotest.test_case "mi noisy channel" `Quick test_mi_noisy_channel_between;
    Alcotest.test_case "mi uniform weighting" `Quick test_mi_uniform_weighting;
    Alcotest.test_case "mi permutation destroys" `Quick test_mi_permutation_destroys;
    Alcotest.test_case "leakage detects leak" `Quick test_leakage_detects_leak;
    Alcotest.test_case "leakage accepts null" `Quick test_leakage_accepts_null;
    Alcotest.test_case "leakage through noise" `Quick test_leakage_noisy_but_real_leak;
    Alcotest.test_case "leakage pinned bits" `Quick test_leakage_pinned_bits;
    Alcotest.test_case "matrix stochastic" `Quick test_matrix_shape_and_stochastic;
    Alcotest.test_case "matrix concentrated" `Quick test_matrix_perfect_channel_concentrated;
    Alcotest.test_case "capacity: BSC" `Quick test_capacity_bsc;
    Alcotest.test_case "capacity: Z-channel" `Quick test_capacity_z_channel;
    Alcotest.test_case "capacity: noiseless" `Quick test_capacity_noiseless;
    Alcotest.test_case "capacity: useless" `Quick test_capacity_useless_channel;
    Alcotest.test_case "capacity: rejects bad matrix" `Quick
      test_capacity_rejects_bad_matrix;
    Alcotest.test_case "capacity bounds uniform MI" `Quick
      test_capacity_bounds_uniform_mi;
    QCheck_alcotest.to_alcotest qcheck_capacity_vs_mi;
    QCheck_alcotest.to_alcotest qcheck_mi_nonnegative_and_bounded;
    QCheck_alcotest.to_alcotest qcheck_leakage_m0_nonnegative;
  ]
