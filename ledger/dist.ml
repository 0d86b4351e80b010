(* Sample distributions as the ledger reports them.

   Percentiles are nearest-rank — always an observed sample, never an
   interpolation — and ranks are computed in integer per-mille so that
   p90 of 100 samples is exactly the 90th, with exactly 10 beyond. *)

type t = { n : int; q1 : float; median : float; q3 : float; p90 : float; p99 : float }

let rank ~n pm =
  if n <= 0 then invalid_arg "Dist.rank: no samples"
  else if pm < 0 || pm > 1000 then invalid_arg "Dist.rank: per-mille"
  else Stdlib.max 1 ((pm * n + 999) / 1000)

let beyond ~n pm = n - rank ~n pm

(* The highest percentile (per-mille) of p99.9, p99, p90 and p50 that
   still has at least ten samples beyond it: the tail [n] samples can
   support. *)
let tail n = List.find_opt (fun pm -> beyond ~n pm >= 10) [ 999; 990; 900; 500 ]

let summarize xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let at pm = a.(rank ~n pm - 1) in
  { n; q1 = at 250; median = at 500; q3 = at 750; p90 = at 900; p99 = at 990 }

(* Across runs, spread is judged the way Python's
   [statistics.quantiles xs ~n:4] (exclusive method) sees it: the
   distance between the interpolated first and third quartiles as a
   share of the median.  [None] below two samples. *)
let spread xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n < 2 then None
  else
    let quartile i =
      let j = Stdlib.min (n - 1) (Stdlib.max 1 (i * (n + 1) / 4)) in
      let delta = float (i * (n + 1) - (j * 4)) /. 4. in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    let median =
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
    in
    Some ((quartile 3 -. quartile 1) /. median)
