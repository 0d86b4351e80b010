(** User-mode execution context.

    A workload body receives a [Uctx.t] and performs all its work
    through it: memory accesses, branches, syscalls, and cycle-counter
    reads (the attacker's clock).  After every operation the context

    - delivers any unmasked device interrupt whose timer has fired
      (charging the kernel's IRQ-handling path to this core — the
      observable "jump" of the Figure 6 receiver), and
    - raises {!Preempted} once the time slice is exhausted,

    so preemption is involuntary from the body's point of view: any
    operation can be its last.  Bodies therefore keep their persistent
    state in captured refs. *)

exception Preempted

type t

val make : System.t -> core:int -> Types.tcb -> slice_end:int -> t
(** Used by {!Exec}; bodies never construct contexts. *)

val sys : t -> System.t
val core : t -> int
val tcb : t -> Types.tcb

val now : t -> int
(** Read the cycle counter (rdtsc / CCNT). *)

val read : t -> int -> unit
(** Load from a virtual address. *)

val write : t -> int -> unit
(** Store to a virtual address. *)

val fetch : t -> int -> unit
(** Execute straight-line code at a virtual address (I-side access). *)

val jump : t -> src:int -> target:int -> unit
(** Taken jump from [src] to [target] (I-fetch + BTB). *)

val cond_branch : t -> addr:int -> taken:bool -> unit
(** Conditional branch (I-fetch + direction predictor). *)

val clflush : t -> int -> unit
(** Flush one cache line by virtual address (x86 [clflush] / Arm v8
    [DC CIVAC] — user-mode instructions, the enabler of Flush+Reload
    and DRAMA-style attacks). *)

val compute : t -> int -> unit
(** Spin for [n] cycles of pure computation (no memory traffic). *)

val syscall : t -> Syscalls.call -> unit

val remaining : t -> int
(** Cycles left in the current slice (never negative). *)

val idle_rest : t -> unit
(** Sleep until the end of the slice, still accepting interrupts;
    always raises {!Preempted} at the slice end.

    The model polls for interrupts every 1000 cycles (the interrupt
    latency), so a timer is delivered at the first poll at or after its
    fire time.  Idling is event-driven but exact: it asks
    {!Irq.next_deliverable} for the earliest timer the running kernel
    would accept, advances the clock straight to the first 1000-cycle
    boundary at or after it (capped at the slice end) and polls there.
    Nothing but the clock moves while idling, and no skipped poll could
    have delivered anything — a poll delivers only fired, deliverable
    timers, and deliverability depends on the current kernel and the
    IRQ routing, neither of which idling changes — so the clock, the
    delivery order and instants, the timers left armed and the machine
    state are exactly those of polling every step (a QCheck property in
    [test/test_kernel.ml] checks this against the polling loop). *)

(** {1 Record / replay}

    The record-once / replay-many machinery of the sweep hot path.
    With a recorder attached, every operation the body performs
    through this context is also appended to the stream — by identity
    (addresses, directions, cycle counts), not by outcome — so the
    stream replayed against a machine in the same pre-slice state
    reproduces the slice bit-identically.  Context operations whose
    influence on the body's op sequence the stream cannot capture
    ({!now}, {!remaining}, {!syscall}, {!sys}, {!tcb}) poison the
    recording, permanently disqualifying the stream; such bodies
    simply always run live. *)

val set_recorder : t -> Tp_hw.Replay.t option -> unit
(** Attach (or detach) a recording stream.  Used by the attack
    harness at slice start; bodies never call it. *)

val replay : t -> Tp_hw.Replay.t -> bool
(** Execute this slice by replaying [r] instead of running the body.
    Returns [false] — caller must run the body live — if the stream is
    not {!Tp_hw.Replay.complete}, the thread has no vspace, or a timer
    is due within the slice (replay performs no mid-slice interrupt
    delivery).  Otherwise replays to the slice boundary — a recorded
    {!idle_rest} goes through the same idle path as live — and raises
    {!Preempted} exactly as live execution would; it never returns
    [true] normally. *)
