(** Interrupt controller model with per-kernel partitioning (§4.2).

    Each IRQ line has an {!Types.irq_handler} object; the
    [Kernel_SetInt] operation associates an IRQ with a kernel image.
    At any time only the preemption timer (IRQ 0) and the IRQs
    associated with the {e current} kernel may be unmasked, which
    prevents one partition's devices from interrupting another
    partition's time slices — the mitigation evaluated in §5.3.5.

    One-shot timers model the programmable timer device the Trojan of
    Figure 6 abuses: it arms a timeout that fires 3–7 ms into the spy's
    slice. *)

val n_irqs : int

val preemption_irq : int
(** IRQ 0: the kernel's own preemption timer, never maskable by
    partitioning. *)

type t

val create : cores:int -> t

val handler : t -> int -> Types.irq_handler

val set_int : t -> irq:int -> Types.kimage -> unit
(** Associate the IRQ with the kernel image.
    @raise Types.Kernel_error [Irq_in_use] if it is already associated
    with a different, still-active kernel. *)

val clear_int : t -> irq:int -> unit

val routes : t -> (int * Types.kimage) list
(** Current IRQ routing table: one [(irq, kernel)] pair per associated
    line, in IRQ order.  Linter query ({!Tp_analysis.Lint}): the
    controller itself guarantees at most one kernel per line. *)

val arm_timer : t -> core:int -> irq:int -> at:int -> unit
(** Program a one-shot timer on [core] to raise [irq] at cycle [at]. *)

val cancel_timers : t -> core:int -> irq:int -> unit

val pending :
  t -> core:int -> now:int -> partitioned:bool -> current:Types.kimage ->
  int list
(** Consume and return the timer IRQs that have fired by [now] and are
    deliverable: with [partitioned] enforcement only IRQs associated
    with [current] are deliverable — others stay pending (masked at
    the source) until their kernel is switched in. *)

val next_timer : t -> core:int -> int
(** Earliest armed timer fire time on [core] ([max_int] if none),
    regardless of deliverability.  The replay gate uses it: a slice
    with no timer due before its end is interrupt-free, so replay
    need not model IRQ delivery. *)

val next_deliverable :
  t -> core:int -> partitioned:bool -> current:Types.kimage -> int
(** Earliest fire time among the timers on [core] that {!pending}
    would deliver to [current] ([max_int] if none).  Until the clock
    reaches it, every {!pending} call with the same [partitioned] and
    [current] returns [[]] and leaves the timers untouched — which is
    what lets {!Uctx.idle_rest} skip straight to it. *)

val drop_masked_race : t -> core:int -> now:int -> unit
(** Model of the §4.3 x86 mask race resolution: after masking, probe
    and acknowledge any interrupt already accepted by the CPU.  Drops
    every timer that has already fired on this core. *)
