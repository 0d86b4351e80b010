(** The preemption-tick / domain-switch path (§4.3).

    The steps, in the paper's order (bold = kernel-switch only):

    + acquire the kernel lock
    + process the timer tick normally
    + {b mask interrupts}
    + {b switch the kernel stack} (after copying it)
    + switch thread context (implicitly switching the kernel image)
    + release the kernel lock
    + {b unmask interrupts of the new kernel}
    + {b flush on-core microarchitectural state}
    + {b pre-fetch shared kernel data}
    + {b poll the cycle counter for the configured latency (padding)}
    + reprogram the timer interrupt
    + restore the user stack pointer and return

    A "kernel switch" happens when the destination thread's
    [Kernel_Image] differs from the current one; in the (uncloned)
    full-flush configuration the flush steps run on any {e domain}
    crossing instead.  Padding is taken from the {e outgoing} kernel's
    configured pad. *)

type cost = {
  total : int;  (** cycles from tick arrival to user return *)
  flush : int;  (** cycles spent in flush operations *)
  pad_wait : int;  (** cycles spent polling for the pad target *)
  kernel_switched : bool;
}

val counters : unit -> Tp_obs.Counter.set
(** The switch-path performance-counter set (["kernel.switch"]:
    switches, kernel_switches, protected, flush_cycles,
    pad_wait_cycles, pad_overruns).  Observability only — the switch
    logic never reads it.  Every switch also feeds
    {!Tp_obs.Padprof.record} and, when tracing, emits a
    ["domain_switch"] span. *)

val switch : System.t -> core:int -> to_:Types.tcb -> cost
(** Perform the tick: switches [per_core] state to [to_] (and its
    kernel), running whatever protection steps the configuration and
    the domain crossing require. *)

val flush : System.t -> core:int -> Tp_hw.Flush.step list -> int
(** Run a switch-flush plan ({!Config.flush_plan}) on [core], as step 8
    of {!switch} does, and return its cost.  [L1_manual] sweeps the
    current kernel's flush buffers; every other step is
    {!Tp_hw.Machine.flush_step}.  Also the Table 2 measurement
    primitive. *)
