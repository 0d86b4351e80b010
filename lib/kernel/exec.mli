(** The per-core execution driver: time-slicing, preemption ticks,
    domain switches.

    Workload bodies are closures invoked once per time slice; a body
    that returns before its slice ends idles the remainder (an "idle"
    workload is just [fun _ -> ()]).  At each slice boundary the driver
    picks the next thread round-robin through the scheduler and runs
    the full {!Domain_switch} sequence, so every protection cost lands
    on the core's cycle counter exactly where a real kernel would put
    it. *)

type body = Uctx.t -> unit

val set_body : Types.tcb -> body -> unit
(** Attach (or replace) the code a thread runs each slice. *)

val make_runnable : System.t -> Types.tcb -> unit
(** Mark ready and enqueue on its core's scheduler. *)

val bind_sched_context : Types.tcb -> Types.sched_context -> unit
(** Bind a scheduling context (MCS, Lyons et al. 2018) to the thread:
    from now on it receives at most [sc_budget] cycles per
    [sc_period]; a depleted thread leaves the ready queue until its
    replenishment time.  The paper's §8 names combining these temporal
    {e integrity} mechanisms with time protection as future work — the
    two compose here because budgets only shorten slices, and every
    slice boundary still runs the full protected switch. *)

val default_slice_us : float
(** 10 ms in the paper's experiments unless stated otherwise; here the
    default slice is 10 ms expressed in platform cycles by {!run}. *)

val run :
  System.t -> core:int -> ?slice_cycles:int -> until:int -> unit -> unit
(** Run the core until its cycle counter reaches [until].  Each
    iteration: switch to the next ready thread (tick path), then run
    its body for one slice.  With no ready thread the current kernel's
    idle thread runs for the slice. *)

val run_slices :
  System.t -> core:int -> ?slice_cycles:int -> slices:int -> unit -> unit
(** Run exactly [slices] time slices. *)

val run_thread : System.t -> core:int -> slice_cycles:int -> Types.tcb -> int
(** The one slice runner under every driver here, and under the
    measurements that drive a slice by hand (Table 6, pad calibration,
    [tpsim stats]): switch to [tcb] ({!Domain_switch.switch}), run the
    body {!set_body} registered for it until [slice_cycles] after the
    switch returns, and idle out the rest if the body returns early.
    Returns the cycles the thread ran.  It neither charges a
    scheduling context nor requeues the thread: the scheduler loops
    do that, and a measurement that removed its threads from the
    queue keeps them off it. *)

(** {1 Multicore driving}

    Cores in the simulator have independent clocks; "concurrent"
    execution is slice-granular interleaving: in each global round
    every listed core runs one slice.  Cross-core state (shared LLC,
    bus rate estimators, DRAM rows) couples the rounds, which is what
    the cross-core experiments measure. *)

val run_concurrent :
  System.t -> cores:int list -> ?slice_cycles:int -> rounds:int -> unit -> unit
(** Free-running multicore: each core independently schedules its own
    ready threads — domains genuinely share the machine concurrently
    (the cloud scenario's default). *)

val run_coscheduled :
  System.t -> cores:int list -> ?slice_cycles:int -> rounds:int -> unit -> unit
(** Gang scheduling (§3.1.1): in each round one security domain owns
    {e all} the listed cores; cores with no ready thread of that
    domain run its kernel's idle thread.  At no instant do two domains
    execute concurrently, which removes every concurrent-access
    channel by construction.  Domains rotate round-robin. *)
