(* The ledger's own checks: its percentile arithmetic, and that the
   result digest it gates on is the same at any -j and whether an
   answer was computed or came from the store. *)

open Tp_ledger
module P = Tp_serve.Protocol

let sample n = Array.init n (fun i -> float (n - i))

let test_nearest_rank () =
  let check = Alcotest.(check (float 0.)) in
  let d100 = Dist.summarize (sample 100) in
  check "p90 of 1..100" 90. d100.Dist.p90;
  check "p99 of 1..100" 99. d100.Dist.p99;
  check "q1 of 1..100" 25. d100.Dist.q1;
  check "median of 1..10" 5. (Dist.summarize (sample 10)).Dist.median;
  check "p99 of 1..1000" 990. (Dist.summarize (sample 1000)).Dist.p99;
  check "q3 of 1..3" 3. (Dist.summarize (sample 3)).Dist.q3;
  check "p99 of one sample" 1. (Dist.summarize (sample 1)).Dist.p99;
  Alcotest.(check int) "10 beyond p90 of 100" 10 (Dist.beyond ~n:100 900);
  Alcotest.check_raises "no samples" (Invalid_argument "Dist.rank: no samples")
    (fun () -> ignore (Dist.summarize [||]))

let test_tail () =
  let check = Alcotest.(check (option int)) in
  check "19 samples support no percentile" None (Dist.tail 19);
  check "20 samples: median" (Some 500) (Dist.tail 20);
  check "99 samples: still median" (Some 500) (Dist.tail 99);
  check "100 samples: p90" (Some 900) (Dist.tail 100);
  check "999 samples: p90" (Some 900) (Dist.tail 999);
  check "1000 samples: p99" (Some 990) (Dist.tail 1000);
  check "10000 samples: p99.9" (Some 999) (Dist.tail 10000)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_spread () =
  let check = Alcotest.(check (option (float 1e-12))) in
  check "1,2,4,..,64" (Some 3.75) (Dist.spread [| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]);
  check "unsorted, even n" (Some 1.3) (Dist.spread [| 5.; 1.; 3.; 2. |]);
  check "two samples extrapolate" (Some 1.0) (Dist.spread [| 2.; 1. |]);
  check "one sample" None (Dist.spread [| 1. |])

(* A 2-cell, 40-sample job: one replayed channel, one live. *)
let test_digest_identity () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tp-ledger-test-%d" (Unix.getpid ()))
  in
  let job =
    P.job ~id:"digest" ~platforms:[ "haswell" ] ~configs:[ "protected" ]
      ~channels:[ "l1d"; "kernel" ] ~seed:3 ~samples:40 ()
  in
  let rev = Tp_serve.Engine.code_rev () in
  let run ~jobs ~expect_cached store =
    let r, _ = Workload.submit ~store ~rev ~jobs job in
    Alcotest.(check (list string)) "job answered as expected" []
      (Workload.job_problems ~expect_cached r);
    Workload.result_digest r
  in
  Host.with_scratch ~root (fun dir ->
      let fresh name f = Workload.with_store (Filename.concat dir name) f in
      let seq = fresh "j1" (run ~jobs:1 ~expect_cached:false) in
      fresh "j2" (fun store ->
          let par = run ~jobs:2 ~expect_cached:false store in
          Alcotest.(check string) "-j 1 = -j 2" seq par;
          Alcotest.(check string) "computed = cached" par (run ~jobs:2 ~expect_cached:true store)));
  Alcotest.(check bool) "scratch stores removed" false (Sys.file_exists root)

let () =
  Alcotest.run "ledger"
    [
      ( "dist",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "tail with 10 beyond" `Quick test_tail;
          Alcotest.test_case "spread across runs" `Quick test_spread;
        ] );
      ("digest", [ Alcotest.test_case "-j and cache identity" `Quick test_digest_identity ]);
    ]
