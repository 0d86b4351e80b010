(** Whole-machine composition: cores, private caches, shared LLC, bus,
    DRAM, and cycle accounting.

    All simulated execution goes through this module: a memory access
    walks TLBs and the cache hierarchy, consumes cycles on the issuing
    core, triggers the prefetcher, records bus traffic, and — for the
    inclusive shared LLC — back-invalidates evicted lines from every
    core's private caches (which is what makes cross-core prime&probe
    work, §5.3.3).

    The machine is fully deterministic.  Measurement noise, where an
    experiment wants it, is added by the attack harness on top of the
    cycle-counter readings, never here. *)

type t

val create : Platform.t -> t

val platform : t -> Platform.t

val n_cores : t -> int

val counter_sets : t -> Tp_obs.Counter.set list
(** Every performance-counter set owned by this machine (per-core sets
    named ["c<i>.*"], then ["llc"], ["dram"], ["bus"]).  Creating a
    machine also {!Tp_obs.Counter.register}s them, replacing any
    same-named sets of a previously created machine. *)

(** {1 Time} *)

val cycles : t -> core:int -> int
(** The core's cycle counter (the attacker's clock). *)

val add_cycles : t -> core:int -> int -> unit
(** Advance a core's clock without memory traffic (pure compute). *)

(** {1 Execution} *)

val access_pt :
  t ->
  core:int ->
  asid:int ->
  global:bool ->
  llc_ways:int ->
  root_pa:int ->
  leaf_pa:int ->
  vaddr:int ->
  paddr:int ->
  kind:Defs.access_kind ->
  int
(** Perform one memory access; returns its latency in cycles, which has
    already been added to the core's clock.  [global] marks the page's
    TLB entry as a global mapping (kernel windows in the unmodified
    kernel).  [llc_ways] is the issuer's CAT class-of-service mask:
    LLC misses may only allocate into those ways ([max_int]: all).
    [root_pa] and [leaf_pa] are the physical addresses of the root and
    leaf page-table lines a walk of this page reads ([-1]: none).  On a
    full TLB miss the walk reads them through the cache hierarchy, so
    page-table cache footprints, and hence van-Schaik-style PT side
    channels, emerge; with [root_pa = -1] a flat platform walk cost is
    charged instead.  Live user accesses ({!Tp_kernel.System.user_access})
    and replayed ones ({!Replay.replay}) both come through here with
    the same lines, and the call allocates nothing. *)

val access :
  t ->
  core:int ->
  asid:int ->
  ?global:bool ->
  ?llc_ways:int ->
  vaddr:int ->
  paddr:int ->
  kind:Defs.access_kind ->
  unit ->
  int
(** {!access_pt} with no page-table lines (a flat walk cost), [global]
    defaulting to [false] and [llc_ways] to all ways. *)

val cond_branch :
  t -> core:int -> asid:int -> vaddr:int -> paddr:int -> taken:bool -> int
(** A conditional branch: instruction fetch plus direction prediction
    through the BHB; returns total latency (added to the clock). *)

val jump :
  t -> core:int -> asid:int -> vaddr:int -> paddr:int -> target:int -> int
(** A taken direct/indirect jump: instruction fetch plus BTB lookup. *)

(** {1 Flush operations (invoked by the kernel model)} *)

val clflush : t -> core:int -> paddr:int -> int
(** Architected single-line flush (x86 [clflush] / Arm v8 [DC CIVAC]):
    evict the line from every cache level on every core (coherence
    makes it global).  Returns the cycles consumed (added to the
    issuing core's clock).  Available to user mode on both modelled
    ISAs — which is what makes Flush+Reload and DRAMA-style attacks
    practical. *)

val flush_step : t -> core:int -> Flush.step -> int
(** Perform one switch-flush step on [core]: the architected L1 I+D
    flush (Arm DCCISW/ICIALLU), the private-L2 flush (0 without one),
    the LLC write-back + invalidate that also back-invalidates every
    core's private caches (x86 [wbinvd]), full TLB invalidation
    (TLBIALL / invpcid), BTB + BHB reset (x86 IBC / Arm BPIALL), or the
    hypothetical DRAM precharge-all ({!dram_close_cost}).  Cache flushes
    cost per capacity line plus write-back per dirty line.  Returns the
    cycles consumed, already added to the clock.  Raises
    [Invalid_argument] on [L1_manual], a kernel-layer step that needs
    the kernel image's flush buffers. *)

(** {1 Component access (kernel model, tests, diagnostics)} *)

val l1d : t -> core:int -> Cache.t
val l1i : t -> core:int -> Cache.t
val l2 : t -> core:int -> Cache.t option
val llc : t -> Cache.t
val dtlb : t -> core:int -> Tlb.t
val itlb : t -> core:int -> Tlb.t
val l2tlb : t -> core:int -> Tlb.t
val btb : t -> core:int -> Btb.t
val bhb : t -> core:int -> Bhb.t
val prefetcher : t -> core:int -> Prefetcher.t option
val bus : t -> Interconnect.t
val dram : t -> Dram.t

val set_prefetcher_enabled : t -> core:int -> bool -> unit
(** Model of the MSR 0x1A4 prefetcher disable (no-op if the platform
    has no prefetcher). *)

(** {1 Snapshot / restore}

    O(state) capture of the {e entire} microarchitectural state into
    one contiguous flat int blob.  Every mutable model word of the
    machine lives in a {!Blob.part}: each component's word array (cache
    tags/dirty/age, TLBs, BTB/BHB, prefetcher trackers, DRAM row
    buffers, interconnect load state), the per-core cycle counters,
    the interconnect's float estimators and every performance-counter
    set.  The machine lists its parts in one fixed order — per core
    [core, L1-D, L1-I, L2, ITLB, DTLB, L2-TLB, BTB, BHB, prefetcher],
    then LLC, DRAM, bus — and that order is the snapshot format the
    digests below depend on.  Snapshot, restore and digest are one
    fold over the list.

    Restoring rolls the machine back bit-identically, which is what
    lets a trial loop execute a victim once and replay it per attacker
    variant ({!Replay}).  Snapshots are machine-shaped, not
    machine-bound: a snapshot taken on one machine restores onto any
    other machine of the same platform. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
(** @raise Invalid_argument if the snapshot's platform or state size
    does not match this machine.  Crosses {!point_restore} once per
    part, so fault injection can crash a restore between any two
    parts; a re-restore from the same snapshot is idempotent, so
    recovery leaves no torn state. *)

val snapshot_digest : snapshot -> string
(** Content digest (MD5 hex) of the snapshot blob; computed lazily and
    cached.  Equal digests mean bit-identical machine state. *)

val state_digest : t -> string
(** Digest of the machine's current state ([snapshot] + digest) — the
    bit-identity oracle used by the replay gates. *)

val point_restore : string
(** ["snapshot_restore"]: fault-injection point crossed once per part
    during {!restore}. *)

(** {1 Cost-model constants}

    The calibrated constants of the flush cost model, exported so that
    analytic worst-case bounds ({!Bounds}) are derived from the same
    numbers the simulator charges rather than a drifting copy. *)

val inval_cost_per_line : int
(** Tag-walk + invalidate cost per cache line flushed. *)

val wb_cost_per_line : int
(** Write-back cost per dirty line flushed. *)

val tlb_flush_cost : int
(** Fixed cost of a full TLB invalidation. *)

val bp_flush_cost : int
(** Fixed cost of a branch-predictor (BTB + BHB) reset. *)

val dram_close_cost : int
(** Fixed cost of the hypothetical all-banks DRAM precharge. *)

val prefetch_issue_cost : int
(** Cycles charged to the demand stream per prefetch issued. *)
