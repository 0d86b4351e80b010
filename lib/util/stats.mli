(** Descriptive statistics over float samples.

    Used both by the channel-measurement toolchain (means and confidence
    bounds of shuffled-MI estimates) and by the benchmark harness
    (latency summaries, geometric means of slowdowns). *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singletons. *)

val std : float array -> float
(** Sample standard deviation. *)

val min : float array -> float
val max : float array -> float

val median : float array -> float
(** Median (average of middle two for even lengths). Does not mutate. *)

val sorted : float array -> float array
(** A sorted copy, in [Float.compare] order (the order of polymorphic
    [compare]: nan first, -0 equal to +0). *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [\[0,100\]], linear interpolation.
    Does not mutate its argument. *)

val percentile_sorted : float array -> float -> float
(** [percentile_sorted b p] is [percentile b p] for an already sorted
    [b]: several percentiles of one array can share one sort. *)

val geomean : float array -> float
(** Geometric mean. Requires all elements positive. *)

val sum : float array -> float

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary
(** All of the above in one pass (plus a sort for the median). *)

val pp_summary : Format.formatter -> summary -> unit
