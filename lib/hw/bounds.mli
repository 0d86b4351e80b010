(** Analytic worst-case cost bounds for time-protection operations.

    The linter ({!Tp_analysis.Lint}) needs a static answer to "how long
    can a protected domain switch possibly take?" so it can judge a
    configured [pad_cycles] without running the machine.  This module
    derives per-platform upper bounds from the {!Platform} geometry and
    the {!Machine} cost constants — the same numbers the simulator
    charges — for the three cost classes of the switch path:

    - {b flush bounds}: full-occupancy, all-dirty flushes of each
      structure (hardware flush instructions), or the x86 "manual"
      load/jump flush expressed as memory sweeps;
    - {b sweep bounds}: worst-case cost of touching [bytes] of memory
      sequentially with a cold TLB (used for the switch-path code and
      data footprint, the stack copy, and the shared-data prefetch);
    - fixed costs (TLB shootdown, branch-predictor reset).

    Sweeps model the DRAM component explicitly: with a stream
    prefetcher the demand stream stalls once per DRAM row; without one
    every line pays an open-row access.  When the configuration colours
    the caches ([coloured]), an adversary holds at most half the
    colours, so at most half of the swept lines can have been evicted
    to DRAM — the bound that makes protected pads checkable without
    assuming an impossible all-DRAM sweep. *)

type sweep = {
  sw_lines : int;  (** cache lines touched *)
  sw_pages : int;  (** pages touched (TLB walks charged) *)
  sw_rows : int;  (** DRAM rows crossed *)
  sw_cycles : int;  (** worst-case total cycles *)
}

val sweep : ?fetch:bool -> ?coloured:bool -> Platform.t -> bytes:int -> unit -> sweep
(** Worst-case cost of sequentially touching [bytes] of memory.
    [fetch] models an instruction-side sweep through chained,
    always-mispredicted jumps (the manual-flush I side); [coloured]
    asserts that cache colouring confines the adversary's evictions to
    at most half the swept lines. *)

val sweep_cycles :
  ?fetch:bool -> ?coloured:bool -> Platform.t -> bytes:int -> unit -> int

val l1_flush_hw_bound : Platform.t -> int
(** Worst-case architected L1 I+D flush: full occupancy, dirty D side.
    Independent of [has_l1_flush_instr] — the full-flush ([wbinvd])
    path uses it on every platform. *)

val l1_flush_manual_bound : ?coloured:bool -> Platform.t -> int
(** The manual load/jump displacement flush bound (§4.3). *)

val l2_flush_bound : Platform.t -> int
(** Worst-case private-L2 flush (0 if the platform has none). *)

val llc_flush_bound : Platform.t -> int
(** Worst-case shared-LLC write-back + invalidate. *)

val tlb_flush_bound : Platform.t -> int
val bp_flush_bound : Platform.t -> int

val flush_step_bound : ?coloured:bool -> Platform.t -> Flush.step -> int
(** Worst-case cost of one switch-flush step: the matching bound
    above, {!Machine.dram_close_cost} for [Dram_close].  [coloured]
    only matters for [L1_manual], whose buffers live in the (coloured)
    kernel image. *)

val eviction_wb_bound : Platform.t -> lines:int -> int
(** Worst-case dirty-victim write-back cost of [lines] demand accesses:
    each allocation can evict a dirty line at every level of the cache
    hierarchy.  The flush bounds charge their own write-backs; sweeps
    must budget the victims' separately. *)

(** {2 Lifecycle cost table}

    The fixed cycle costs of the kernel lifecycle operations, shared
    between the executing kernel ({!Tp_kernel.Domain_switch} and
    {!Tp_kernel.Clone} charge them) and the analytic envelopes
    ({!Tp_analysis.Lint}, {!Tp_analysis.Kcert} sum them) — one table,
    so the certified bound cannot drift from the executed sequence. *)

val lock_cost : int
(** Acquire or release the big kernel lock once. *)

val timer_reprogram_cost : int
(** Reprogram the preemption timer for the incoming domain. *)

val return_cost : int
(** Return-from-kernel trap overhead. *)

val switch_fixed_overhead : int
(** [2*lock + timer_reprogram + return]: the unconditional per-switch
    overhead outside any flush or sweep. *)

val ipi_cost : int
(** One inter-processor-interrupt round trip (destroy's TLB shootdown
    stalls initiator and remote for one each). *)

val destroy_bookkeeping_cost : int
(** Capability/registry bookkeeping at the end of a destroy. *)
