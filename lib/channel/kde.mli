(** Gaussian kernel density estimation over a fixed evaluation grid.

    The paper's methodology (§5.1) models attacker time measurements as
    a continuous probability density per input symbol, estimated with
    KDE [Silverman 1986].  We use the binned variant: samples are first
    histogrammed onto the evaluation grid, then the Gaussian kernel is
    applied to bin counts, so a density costs O(occupied bins ×
    kernel window) instead of O(samples × grid).  What keeps the
    100-shuffle leakage test cheap is {!estimate_into}: it reuses the
    caller's buffers, evaluates half the kernel, and reports the window
    it wrote, so {!Mi} sums over that window only. *)

type grid = { lo : float; hi : float; points : int }
(** Evaluation grid: [points] equally spaced positions covering
    [\[lo, hi\]]. *)

val grid_step : grid -> float

val grid_position : grid -> int -> float

val silverman_bandwidth : float array -> float
(** Silverman's rule of thumb: [0.9 * min(sd, iqr/1.34) * n^(-1/5)].
    Returns 0 for degenerate (constant) samples; callers must apply a
    floor (see {!estimate}). *)

type workspace
(** Kernel scratch for repeated estimates on one grid.  Mutable: use
    it from one domain at a time. *)

val workspace : grid -> workspace

val estimate_into :
  workspace -> ?bandwidth:float -> float array -> into:float array -> int * int
(** [estimate_into ws xs ~into] writes the density of [xs] on the
    workspace's grid into [into] (length [points]) and returns the
    window [(first, last)] it wrote: the occupied bins widened by the
    kernel's half-width and clamped to the grid.  Outside the window
    the density is exactly +0.0, but [into] is left as it was there.
    It sorts [xs] in place.  The values are bit-identical to
    {!estimate}'s:
    - the bandwidth takes the standard deviation in sample order
      before sorting, and both quartiles from the one sorted array;
    - the kernel is computed for offsets [0 .. hw] and mirrored,
      exactly, since [float (-m) *. step /. h] is [-(m * step / h)];
    - bins are added in ascending order, as runs of the sorted [xs]. *)

val estimate : grid -> ?bandwidth:float -> float array -> float array
(** [estimate grid samples] returns the estimated density at each grid
    position.  If [bandwidth] is omitted, Silverman's rule is used,
    floored at one grid step so that deterministic (zero-variance) data
    still yields a proper, narrow density instead of a division by
    zero.  The result integrates to ~1 over the grid (up to edge
    truncation). *)
