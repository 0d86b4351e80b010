(** The kernel-image covert channel of §5.3.1 / Figure 3.

    Userland is coloured in both configurations; what varies is
    whether the kernel is shared (one image whose text, stack and
    globals span all colours — boot memory is uncoloured) or cloned
    per domain (each image built from its domain's coloured pool).

    The sender transmits a symbol from I = 0..3 by invoking system
    calls during its slice: [Signal] for 0, [TCB_SetPriority] for 1,
    [Poll] for 2, idling for 3.  Each handler has its own text pages —
    hence its own cache colours — so with a shared kernel the
    receiver, probing the physically-indexed cache through its own
    coloured buffer, sees a handler-dependent number of misses.  With
    cloned kernels the sender's syscall footprint lives entirely in
    the sender's colours and the channel disappears. *)

val symbols : int
(** 4, as in the paper. *)

val prepare :
  Tp_kernel.Boot.booted ->
  (Tp_kernel.Uctx.t -> int -> unit) * (Tp_kernel.Uctx.t -> float option)
(** Sender/receiver pair for {!Harness.run_pair_result}.  The
    receiver's output is the number of probe misses (the paper's "LLC
    misses" axis of Figure 3). *)

val slice_cycles : Tp_hw.Platform.t -> int
(** Time-slice length the receiver needs: its three probe passes over
    its cache share must fit one slice.  1 ms on x86, as in §5.3.1; the
    Arm platforms' low clock and large share need a 10 ms tick. *)

val syscalls_per_slice : int
