(** Shrunken platforms and a machine-level switch scrub, for
    small-scope model checking (Tp_analysis's [certify --exhaustive]).

    {!tiny} keeps the parent platform's hierarchy shape but makes every
    structure small enough that all two-domain schedules of a short
    horizon can be enumerated.  Guarantees:

    - every physically-indexed cache has exactly {e two} page colours,
      and its sets line up with page parity (even pages are one colour,
      odd pages the other) — so a parity placement reproduces a
      2-colour allocation;
    - TLBs are fully associative (page-granular contention survives the
      shrink);
    - no stream prefetcher: its tracker state has no architected flush
      (the Section 5.3.2 residual) and sits outside the five certified
      channels. *)

val tiny : Platform.t -> Platform.t

val variants : Platform.t -> Platform.t list
(** [tiny p] plus a few more small geometries (different ways/sets),
    for property tests that sweep machine configurations. *)

(** {1 Schedule enumeration} *)

val schedule_letters : string
(** Letter assigned to each domain index: ['A'] (attacker) is domain 0,
    ['V'] (victim) domain 1, ['D'] (deterministic public neighbour)
    domain 2. *)

val schedules : domains:int -> horizon:int -> string list
(** All [domains^horizon] turn orders of length [horizon] over the
    first [domains] letters of {!schedule_letters}, in a fixed order.
    With [domains = 2] this reproduces the original two-domain
    enumeration bit for bit (schedule [i] spells bit [j] of [i] as
    ['V'] when set).  Raises [Invalid_argument] outside
    [2 <= domains <= 3] or [1 <= horizon <= 16]. *)

(** {1 Switch scrub}

    The machine-level image of the domain-switch flush: a
    switch-flush plan ({!Flush.step} list, built by
    [Tp_kernel.Config.flush_plan]) run on the shrunken machine. *)

val apply : Machine.t -> core:int -> Flush.step list -> int
(** Run the plan's steps in order with {!Machine.flush_step}; returns
    the cycles charged.  Raises [Invalid_argument] on [L1_manual]
    (a kernel-layer step: callers map it to [L1_hw] at machine
    scope). *)

val bound : Platform.t -> Flush.step list -> int
(** Worst-case cost of {!apply}: the sum of {!Bounds.flush_step_bound}
    over the plan.  Dominates the exact cost from any reachable
    machine state (the Bounds-domination property test exercises
    this). *)

(** {1 Lifecycle operations}

    Machine-level images of the kernel clone/destroy paths, used by the
    per-path exhaustive cross-check: the neutral neighbour turn is
    replaced with the operation under test.  Both are sequential sweeps
    so the analytic [*_op_bound] (built from {!Bounds.sweep}) dominates
    them on any reachable machine state. *)

val clone_op : Machine.t -> core:int -> asid:int -> src:int -> dst:int -> int
(** The coloured-pool copy loop of [Clone.clone], shrunk to one page:
    a read sweep of the page at [src] followed by a write sweep of the
    page at [dst].  Returns the cycles charged. *)

val clone_op_bound : Platform.t -> int
(** Analytic worst case of {!clone_op}. *)

val destroy_op : Machine.t -> core:int -> asid:int -> barrier:int -> int
(** The teardown of [Clone.destroy], shrunk: one write to the IPI
    barrier line at [barrier], a TLB shootdown, and the fixed
    {!Bounds.ipi_cost} stall.  Returns the cycles charged. *)

val destroy_op_bound : Platform.t -> int
(** Analytic worst case of {!destroy_op}. *)
