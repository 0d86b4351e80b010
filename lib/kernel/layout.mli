(** Kernel memory layout.

    Defines (a) the per-image layout — text+rodata, stack, replicated
    globals, and the L1-sized flush buffers used by the x86 "manual"
    flush (§4.3) — and (b) the residual shared static data region,
    which holds exactly the §4.1 list: scheduler ready-queue heads and
    bitmap, current scheduling decision, IRQ state tables, current IRQ,
    hardware ASID table, IO-port control table, current-thread
    pointers, the SMP big lock and the IPI barrier (~9.5 KiB total).

    The kernel window is mapped at the same virtual address in every
    address space, so the virtual address of a kernel byte depends only
    on its offset — different images alias in the virtually-indexed L1
    but occupy different (colourable) physical lines, exactly the
    property the clone design relies on. *)

val kernel_base_vaddr : int
(** Base of the kernel virtual window. *)

val shared_vaddr : int
(** Virtual base of the residual shared static data block ({!shared_region}
    offsets are relative to it).  {!System} maps the block here and the
    kernel-path certifier ({!Tp_analysis.Kcert}) lifts the switch
    trace against the same base, so the two cannot drift. *)

(** {1 Per-image layout} *)

type image_layout = {
  text_off : int;
  text_size : int;
  stack_off : int;
  stack_size : int;
  data_off : int;  (** replicated globals *)
  data_size : int;
  flushbuf_off : int;  (** L1-D then L1-I flush buffers (x86 only) *)
  flushbuf_size : int;
  image_bytes : int;  (** total, page-aligned *)
}

val image_layout : Tp_hw.Platform.t -> image_layout

val image_frames : Tp_hw.Platform.t -> int
(** Frames needed for one kernel image. *)

(** {1 Shared static data} *)

type shared_region =
  | Sched_queues  (** per-priority ready-queue head pointers (4 KiB) *)
  | Sched_bitmap  (** highest-priority lookup bitmap (32 B) *)
  | Cur_decision  (** current scheduling decision (8 B) *)
  | Irq_tables  (** IRQ state + handler tables (2 x 1.1 KiB) *)
  | Cur_irq  (** interrupt currently being handled (8 B) *)
  | Asid_table  (** first-level hardware ASID table (1.1 KiB) *)
  | Ioport_table  (** IO port control table (2 KiB, x86 only) *)
  | Cur_pointers  (** current thread / cspace / kernel / idle / FPU owner *)
  | Big_lock  (** SMP kernel lock (8 B) *)
  | Ipi_barrier  (** inter-processor-interrupt barrier (8 B) *)

val shared_region_off : shared_region -> int
val shared_region_size : shared_region -> int

val shared_bytes : int
(** Total shared region size (~9.5 KiB). *)

val shared_frames : int

val all_shared_regions : shared_region list

val switch_footprint : Tp_hw.Platform.t -> (string * int) list
(** The distinct memory the {!Domain_switch} path touches outside its
    flush and shared-prefetch steps, as [(component, bytes)] pairs:
    tick-handler text, the shared-region slots of steps 1–7 and 11,
    the kernel stack copy (read + write) and the destination TCB.
    Input to the linter's analytic worst-case switch cost. *)

val clone_footprint : Tp_hw.Platform.t -> (string * int) list
(** The distinct memory the [Clone.clone] path touches: clone-handler
    text, the ASID table, and the coloured-pool copy loop's read and
    write sides (text + stack + replicated data of one image each).
    Input to the linter's analytic worst-case clone cost. *)

val destroy_footprint : Tp_hw.Platform.t -> (string * int) list
(** The distinct memory the [Clone.destroy] path touches:
    destroy-handler text, IRQ tables, scheduler structures, the IPI
    barrier, the ASID table and the registry bookkeeping.  Input to
    the linter's analytic worst-case destroy cost (which adds the
    fixed IPI-stall and bookkeeping costs from {!Tp_hw.Bounds}). *)

(** {1 Syscall handler text map} *)

(** Byte ranges within kernel text, one per handler, placed on distinct
    pages so different handlers have different cache colours — the
    physical basis of the Figure 3 kernel channel. *)

type text_range = { t_off : int; t_len : int }

val entry_stub : text_range
val handler_signal : text_range
val handler_set_priority : text_range
val handler_poll : text_range
val handler_yield : text_range
val handler_ipc : text_range
val handler_tick : text_range
val handler_irq : text_range
val handler_clone : text_range
val handler_destroy : text_range
