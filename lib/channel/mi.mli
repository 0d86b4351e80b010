(** Continuous mutual information between discrete inputs and
    continuous outputs.

    The channel model of §5.1: the sender places symbols from a finite
    input set into the pipe; the receiver observes a real-valued time
    measurement.  MI is computed between a {e uniform} distribution on
    inputs and the observed conditional output densities (estimated by
    {!Kde}), integrated with the rectangle method:

    {v M = Σ_i (1/k) ∫ f_i(y) log2( f_i(y) / f(y) ) dy v}

    where [f] is the equal-weight mixture of the per-input densities.
    The result is in bits per channel use. *)

type samples = { input : int array; output : float array }
(** Paired observations; arrays must have equal non-zero length.
    Inputs are symbol indices (need not be contiguous, but MI weights
    every {e distinct} observed symbol equally, per the paper). *)

val default_grid_points : int

type prepared
(** An estimator bound to one dataset, built so that re-pairing the
    outputs (the shuffle test in {!Leakage}) redoes only what a
    re-pairing changes.  {!prepare} computes, once:
    - the symbol groups, from [input], which a shuffle never touches;
    - the KDE grid, from the min and max of [output], a multiset every
      permutation preserves;
    - the scratch each evaluation fills: one sample buffer and one
      density per group, the marginal, the kernel.

    Every evaluation then gives bit-for-bit the value a from-scratch
    estimate of the re-paired dataset would, and sums in the same
    order: groups in symbol order, grid points ascending.  The sums run
    only over the window each density's kernel reaches
    ({!Kde.estimate_into}); outside it the density is exactly +0.0,
    which adds nothing to the marginal and which the [> 1e-300] guard
    of the MI sum already skips.  [log2 x] is [log x /. ln2] with [ln2]
    computed once at start-up: the same quotient, one [log] fewer.

    A [prepared] is mutable scratch: use it from one domain at a time. *)

val prepare : ?grid_points:int -> samples -> prepared

val evaluate : ?perm:int array -> prepared -> float
(** MI of the prepared dataset, or, given [perm] (a permutation of
    [0 .. n-1]), of the dataset whose sample [i] pairs input [i] with
    output [perm.(i)]. *)

val estimate : ?grid_points:int -> samples -> float
(** [evaluate (prepare s)]: estimated mutual information in bits.
    Always ≥ 0 (negative integration artefacts are clamped) and ≤ log2
    of the number of distinct input symbols. *)

val bits_to_millibits : float -> float
