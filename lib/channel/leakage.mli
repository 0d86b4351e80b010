(** The paper's statistical leakage test (§5.1, after Chothia & Guha).

    Sampling noise makes the MI estimate non-zero even for a channel
    with no leak, so the estimate [M] alone proves nothing.  The test
    simulates the measurement noise of a guaranteed-zero-leakage
    channel by shuffling the outputs onto random inputs, estimating MI
    on each shuffled dataset, and deriving a 95% confidence bound [M0]
    for "compatible with zero leakage".  The verdict:

    - [M] ≤ 1 millibit: below the tool's resolution — negligible
      regardless of the test;
    - [M] ≤ [M0]: no evidence of a leak;
    - [M] > [M0] (strictly): the observations are inconsistent with
      zero leakage — a definite channel. *)

type verdict =
  | Leak  (** definite channel: [m > m0] and above resolution *)
  | No_evidence  (** within the zero-leakage confidence bound *)
  | Negligible  (** below the 1 millibit tool resolution *)

type result = {
  m : float;  (** estimated MI of the observed data, bits *)
  m0 : float;  (** 95% bound for a zero-leakage channel, bits *)
  n : int;  (** number of samples *)
  verdict : verdict;
  shuffle_mean : float;
  shuffle_std : float;
}

val resolution_bits : float
(** 1 millibit: the resolution the paper quotes for its tool. *)

val test :
  ?shuffles:int ->
  ?grid_points:int ->
  rng:Tp_util.Rng.t ->
  Mi.samples ->
  result
(** Run the full test.  [shuffles] defaults to 100, as in the paper.
    The confidence bound is [mean + 1.96 * std] of the shuffled-MI
    distribution (normal approximation to the paper's exact interval).
    The dataset is {!Mi.prepare}d once, then evaluated on the real
    pairing and on each shuffle: groups and grid are shared by all
    [shuffles + 1] estimates, and each estimate is bit-identical to a
    separate {!Mi.estimate} of the shuffled dataset.
    @raise Invalid_argument on an empty dataset: no samples is never
    evidence of no leak. *)

val pp_verdict : Format.formatter -> verdict -> unit

val pp_result : Format.formatter -> result -> unit
(** Renders like the paper: "M = 0.6 mb, M0 = 0.1 mb, n = 255040". *)
