type verdict = Leak | No_evidence | Negligible

type result = {
  m : float;
  m0 : float;
  n : int;
  verdict : verdict;
  shuffle_mean : float;
  shuffle_std : float;
}

let resolution_bits = 0.001

let test ?(shuffles = 100) ?(grid_points = Mi.default_grid_points) ~rng samples =
  let n = Array.length samples.Mi.input in
  if n = 0 then invalid_arg "Leakage.test: empty dataset (no samples collected)";
  let est = Mi.prepare ~grid_points samples in
  let m = Mi.evaluate est in
  let shuffled =
    Array.init shuffles (fun _ ->
        Mi.evaluate est ~perm:(Tp_util.Rng.permutation rng n))
  in
  let mean = Tp_util.Stats.mean shuffled in
  let std = Tp_util.Stats.std shuffled in
  let m0 = mean +. (1.96 *. std) in
  let verdict =
    if m <= resolution_bits then Negligible
    else if m > m0 then Leak
    else No_evidence
  in
  { m; m0; n; verdict; shuffle_mean = mean; shuffle_std = std }

let pp_verdict ppf = function
  | Leak -> Format.pp_print_string ppf "LEAK"
  | No_evidence -> Format.pp_print_string ppf "no evidence of leak"
  | Negligible -> Format.pp_print_string ppf "negligible (< 1 mb)"

let pp_result ppf r =
  Format.fprintf ppf "M = %.1f mb, M0 = %.1f mb, n = %d [%a]"
    (Mi.bits_to_millibits r.m) (Mi.bits_to_millibits r.m0) r.n pp_verdict
    r.verdict
