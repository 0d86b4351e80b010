(** Cross-core bandwidth channel under scheduler control (§3.1.1).

    The confinement scenario must exclude interconnect channels because
    hardware cannot partition them; the paper's way out is to
    "co-schedule domains across the cores, such that at any time only
    one domain executes".  This module packages a cross-core
    bus-contention sender/receiver pair for {!Harness.run_pair_result}
    with a [Concurrent] or [Coscheduled] placement: under free-running
    concurrency the channel is open even with full time protection;
    under gang scheduling the sender is simply never executing while
    the receiver measures, and the channel closes by construction. *)

val symbols : int

val prepare :
  Tp_kernel.Boot.booted ->
  (Tp_kernel.Uctx.t -> int -> unit) * (Tp_kernel.Uctx.t -> float option)
(** Sender streams bus traffic proportional to its symbol from core 0;
    the receiver senses residual bandwidth from core 1 through a fixed
    LLC-resident probe set. *)
