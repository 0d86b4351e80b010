(** Central kernel state and kernel-memory access primitives.

    A [System.t] is one booted machine: the hardware model, the
    residual shared data region, the initial kernel image (built from
    boot-reserved frames, its [Kernel_Memory] deliberately withheld
    from userland so an idle thread always survives, §4.4), scheduler
    and IRQ state, and per-core "current kernel / current thread"
    registers.

    Every kernel code path in the model executes its memory traffic
    through {!touch_image} / {!touch_shared}, so kernel footprints hit
    the simulated caches exactly where the layout puts them — this is
    what makes the Figure 3 kernel channel (and its mitigation by
    cloning) emerge rather than being hard-coded. *)

type t

type percore = {
  mutable cur_kernel : Types.kimage;
  mutable cur_thread : Types.tcb option;
  mutable slice_end : int;  (** cycle at which the current slice ends *)
  mutable last_tick_start : int;  (** preemption-interrupt arrival time *)
}

val create : Tp_hw.Platform.t -> Config.t -> t
(** Boot: reserve frames for the initial kernel image and the shared
    region, create the initial kernel (ASID 0) and its idle thread. *)

val machine : t -> Tp_hw.Machine.t
val platform : t -> Tp_hw.Platform.t

val image_layout : t -> Layout.image_layout
(** [Layout.image_layout (platform t)], computed once at {!create}. *)

val cfg : t -> Config.t
val phys : t -> Phys.t
val sched : t -> Sched.t
val irq : t -> Irq.t
val initial_kernel : t -> Types.kimage
val kernels : t -> Types.kimage list
val register_kernel : t -> Types.kimage -> unit
val unregister_kernel : t -> Types.kimage -> unit
val per_core : t -> int -> percore
val n_colours : t -> int

val alloc_asid : t -> int
(** @raise Types.Kernel_error [Out_of_asids] when exhausted. *)

val free_asid : t -> int -> unit
(** @raise Types.Kernel_error [Double_free] when the ASID is already
    free (or was never allocatable), instead of corrupting the free
    list. *)

val free_asid_count : t -> int
(** Number of currently free ASIDs (leak detection in the fault
    driver). *)

val asid_is_free : t -> int -> bool

val register_tcb : t -> Types.tcb -> unit
val all_tcbs : t -> Types.tcb list

val now : t -> core:int -> int
(** Current cycle count on a core. *)

(** {1 Kernel memory traffic}

    All return the cycles consumed (already charged to the core). *)

type image_region = Text | Stack | Data | Flushbuf

val image_region_base : t -> Types.kimage -> image_region -> int * int
(** [(vaddr, paddr)] base of a region of an image. *)

val image_pa : Types.kimage -> off:int -> int
(** Physical address of a byte offset into an image (resolves through
    the possibly non-contiguous frame list). *)

val touch_image :
  t -> core:int -> Types.kimage -> region:image_region -> off:int -> len:int ->
  kind:Tp_hw.Defs.access_kind -> int
(** Touch every cache line of the byte range within an image region,
    through the current address space's TLB context. *)

val touch_shared :
  t -> core:int -> Layout.shared_region -> ?off:int -> ?len:int ->
  kind:Tp_hw.Defs.access_kind -> unit -> int
(** Touch (a sub-range of) one shared static data region.  Defaults to
    the whole region. *)

val shared_base : t -> int * int
(** [(vaddr, paddr)] base of the shared static data block. *)

val set_cat_masks : t -> int array option -> unit
(** Install per-domain CAT way masks (index = domain tag); [None]
    disables way partitioning.  Used by {!Boot} when the configuration
    enables [cat_llc]. *)

val cat_mask_of_domain : t -> int -> int
(** The LLC allocation mask for a domain (all ways when CAT is off or
    the domain is out of range). *)

val cat_masks : t -> int array option
(** The installed per-domain CAT way masks, if any (linter query). *)

val set_shared_audit :
  t ->
  (Layout.shared_region -> off:int -> len:int -> kind:Tp_hw.Defs.access_kind -> unit)
  option ->
  unit
(** Install (or remove) an observer called on every access to the
    residual shared data — the instrumentation behind {!Audit}'s
    §4.1-style audit. *)

val shared_audit :
  t ->
  (Layout.shared_region -> off:int -> len:int -> kind:Tp_hw.Defs.access_kind -> unit)
  option
(** The currently installed shared-data observer, if any. *)

(** {1 User memory} *)

val translate : Types.vspace -> int -> int
(** Virtual to physical; raises [Types.Kernel_error Invalid_capability]
    on an unmapped page (the model's page fault). *)

val map_page :
  t ->
  Types.vspace ->
  pt_alloc:(unit -> int) option ->
  vpn:int ->
  frame:int ->
  unit
(** Install a mapping.  If the covering leaf page table does not exist
    yet, [pt_alloc] supplies a frame for it (from the mapper's pool —
    page tables are user-supplied kernel data, Figure 2); with [None] a
    missing leaf PT raises [Invalid_address]. *)

val user_access :
  ?recorder:Tp_hw.Replay.t ->
  t -> core:int -> Types.tcb -> vaddr:int -> kind:Tp_hw.Defs.access_kind -> int
(** One user-mode access by a thread: TLB lookup, then — on a full
    TLB miss — a {e real} page-table walk that reads the root and leaf
    PT lines through the cache hierarchy (so PT cache footprints, the
    van Schaik 2018 channel of §5.3.1, exist and are coloured away
    with the rest of the pool), then the data access.  Returns and
    charges the total latency.  With a [recorder] the access is also
    appended to it, with the PT lines the walk would read, so a
    replayed TLB-miss walk touches the exact lines the live one did.
    The call allocates nothing. *)

val current_asid : t -> core:int -> int
(** ASID used for kernel accesses on this core: the current thread's
    address space (kernel mappings live in every AS). *)

val kernel_mappings_global : t -> bool
(** Whether kernel TLB entries are global mappings: true for the
    unmodified single-kernel layout, false once the kernel is
    colour-ready (multiple images preclude global mappings — the
    Table 5 Arm overhead). *)
