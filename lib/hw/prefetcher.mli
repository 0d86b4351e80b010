(** Hardware stream-prefetcher model.

    This module exists to reproduce the paper's central negative result
    (§5.3.2): on Haswell, time protection colours the L2 yet a residual
    channel of ~50 mb remains, which the authors traced to the data
    prefetcher — a state machine that the architecture provides no way
    to flush and that page colouring cannot partition.

    The model: a small table of stream trackers indexed by low page
    bits and tagged by only a {e partial} page tag (as in real
    prefetchers, to keep the structure cheap).  Partial tagging means
    pages of different security domains alias into the same tracker.
    A domain's streaming pattern trains trackers (direction +
    confidence); after a domain switch the trackers retain that state —
    no flush instruction exists — so the next domain's accesses hit
    trained trackers and trigger spurious prefetches whose number
    depends on the previous domain's behaviour.  Each spurious prefetch
    perturbs the L2 (insertion + fill-buffer occupancy), which the
    receiver observes as probe-time variation.

    [set_enabled t false] models the MSR-based disable the paper uses
    in the "full flush" scenario (Viswanathan 2014). *)

type t

val create : ?name:string -> slots:int -> degree:int -> line:int -> unit -> t
(** [slots] stream trackers, prefetching [degree] lines ahead on a
    confirmed stream, over cache lines of [line] bytes.  [slots] and
    [line] must be powers of two.  [name] labels the
    performance-counter set. *)

val counters : t -> Tp_obs.Counter.set
(** Issue/allocation/filter counters (observability only). *)

val set_enabled : t -> bool -> unit

val enabled : t -> bool

val slot_of : t -> page:int -> int
(** Tracker index for a page number: a hash folding in higher address
    bits, so page colouring cannot partition the table (exposed for
    tests). *)

val on_access : t -> paddr:int -> int
(** Notify the prefetcher of a demand access to physical address
    [paddr]; returns how many lines to
    prefetch (0 when disabled or no stream confirmed).  Their physical
    addresses are [suggestion t 0] to [suggestion t (n - 1)], in issue
    order, valid until the next [on_access]: the per-access path builds
    no list. *)

val suggestion : t -> int -> int
(** [suggestion t i]: the [i]th line the last {!on_access} suggested. *)

val trained_slots : t -> int
(** Number of trackers whose confidence has reached the prefetch
    threshold; diagnostic only. *)

val hard_reset : t -> unit
(** Clear all tracker state.  Deliberately {e not} part of any flush
    the OS model can invoke: contemporary ISAs expose no such
    operation, which is the paper's hardware-contract complaint.  Used
    only by tests and by explicit "what if hardware helped" ablations. *)

val parts : t -> Blob.part list
(** Every mutable model word, in snapshot order (see {!Blob.part}). *)
