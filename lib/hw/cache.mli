(** Set-associative, write-back, write-allocate cache model.

    This is the workhorse of the simulator: L1-I, L1-D, L2 and LLC are
    all instances, differing only in geometry and indexing policy.
    TLBs reuse it through {!Tlb} with page-sized "lines".

    The model tracks, per line: tag, dirty bit and LRU age.  It does not
    store data — timing channels arise from presence/absence of lines
    and from the cost of writing back dirty lines, which is exactly what
    the model captures.

    Indexing vs. tagging: L1 caches are (effectively) indexed by virtual
    address and therefore cannot be partitioned by the OS; L2/LLC are
    physically indexed, which is what makes page colouring work.  Every
    access supplies both addresses and the geometry selects which one
    feeds the set index; tags always come from the physical address. *)

type indexing = Virtual | Physical

type geometry = {
  size : int;  (** total bytes; power of two *)
  ways : int;  (** associativity; power of two *)
  line : int;  (** line size in bytes; power of two *)
  indexing : indexing;
}

val sets : geometry -> int
(** Number of sets: [size / (ways * line)]. *)

val colours : geometry -> int
(** Page colours: [max 1 (sets * line / page_size)].  The number of
    distinct cache partitions the OS can create by frame allocation. *)

type t

val create : ?name:string -> geometry -> t
(** [name] labels the cache's performance-counter set (default
    ["cache"]); {!Machine} names its instances ["c0.l1d"], ["llc"], … *)

val geometry : t -> geometry

val counters : t -> Tp_obs.Counter.set
(** Hit/miss/writeback/invalidation/flush counters.  Observability
    only: the model never reads them, so recording cannot perturb
    simulated time (see {!Tp_obs.Ctl}). *)

(** {2 Access}

    The per-access hot path of the whole simulator, allocation-free:
    each call returns a bare [bool] (hit?); on a miss the victim is
    available from {!last_evicted} / {!last_evicted_dirty} until the
    next allocating operation on the same cache. *)

val access_fast : t -> vaddr:int -> paddr:int -> write:bool -> bool
(** [true] = hit.  Look up the line containing the address; on miss,
    allocate it, evicting the LRU way of the set.  [write] marks the
    line dirty. *)

val access_masked_fast :
  t -> alloc_ways:int -> vaddr:int -> paddr:int -> write:bool -> bool
(** Like {!access_fast}, but a miss may only allocate into the ways set
    in the [alloc_ways] bitmask — the Intel CAT (cache allocation
    technology) mechanism of §2.3: hits are served from any way, but a
    class of service can only displace lines within its own ways, so
    disjoint masks partition the cache by associativity instead of by
    page colour. *)

val insert_clean_fast : t -> vaddr:int -> paddr:int -> bool
(** [true] = already present.  Otherwise allocate the line without
    marking it dirty and without counting as a demand access (used by
    the prefetcher). *)

val last_evicted : t -> int
(** Physical line address (line-aligned) evicted by the most recent
    allocating miss, or [-1] if it filled an invalid way.  Inclusive
    outer caches use it to back-invalidate inner copies.  Only
    meaningful directly after a call above returned [false]. *)

val last_evicted_dirty : t -> bool
(** Whether that victim needed write-back. *)

val probe : t -> vaddr:int -> paddr:int -> bool
(** Non-allocating presence check (true = would hit). Does not touch
    LRU state; used by tests and by snooping logic, never by attacker
    code (attackers only see time). *)

val invalidate_line : t -> vaddr:int -> paddr:int -> unit
(** Drop a single line if present (no write-back modelled). *)

val flush : t -> int
(** Invalidate everything; returns the number of dirty lines that had
    to be written back (the source of the paper's cache-flush latency
    channel, §5.3.4). *)

val dirty_lines : t -> int
(** Current number of dirty lines. *)

val valid_lines : t -> int
(** Current number of valid lines. *)

val parts : t -> Blob.part list
(** Every mutable model word, in snapshot order (see {!Blob.part}). *)

val set_of : t -> vaddr:int -> paddr:int -> int
(** Set index the given address maps to (respects the indexing policy). *)

val capacity_lines : t -> int
(** Total number of lines the cache can hold. *)

val pp_geometry : Format.formatter -> geometry -> unit
