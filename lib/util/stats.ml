let mean a =
  assert (Array.length a > 0);
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0.0 a in
    acc /. float_of_int (n - 1)
  end

let std a = sqrt (variance a)

let min a =
  assert (Array.length a > 0);
  Array.fold_left Stdlib.min a.(0) a

let max a =
  assert (Array.length a > 0);
  Array.fold_left Stdlib.max a.(0) a

(* [Float.compare] orders floats exactly as polymorphic [compare] does
   (nan first and equal to itself, -0 equal to +0), without the generic
   dispatch. *)
let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let median a =
  assert (Array.length a > 0);
  let b = sorted a in
  let n = Array.length b in
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

let percentile_sorted b p =
  assert (Array.length b > 0);
  assert (p >= 0.0 && p <= 100.0);
  let n = Array.length b in
  if n = 1 then b.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    b.(lo) +. (frac *. (b.(hi) -. b.(lo)))
  end

let percentile a p =
  assert (Array.length a > 0);
  percentile_sorted (sorted a) p

let geomean a =
  assert (Array.length a > 0);
  let acc =
    Array.fold_left
      (fun s x ->
        assert (x > 0.0);
        s +. log x)
      0.0 a
  in
  exp (acc /. float_of_int (Array.length a))

let sum a = Array.fold_left ( +. ) 0.0 a

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  median : float;
}

let summarize a =
  {
    n = Array.length a;
    mean = mean a;
    std = std a;
    min = min a;
    max = max a;
    median = median a;
  }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.3f std=%.3f min=%.3f median=%.3f max=%.3f"
    s.n s.mean s.std s.min s.median s.max
