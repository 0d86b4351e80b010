(** DRAM row-buffer covert channel (beyond the paper's evaluation).

    The paper's taxonomy lists DRAM row buffers among the stateful
    microarchitectural resources (§2.2 item 1), but its evaluation
    does not attack them.  This module does, DRAMA-style: the sender
    encodes its symbol by opening rows in a set of banks (or leaving
    them closed); the receiver times accesses whose rows conflict in
    the same banks — an open sender row means the receiver's access
    pays the precharge+activate penalty.

    Two properties worth demonstrating:

    - {e intra-core}, the channel survives the paper's full time
      protection — none of the architected flushes touches row-buffer
      state, another instance of the incomplete hardware-software
      contract (the same argument as for the prefetcher);
    - it closes if the memory controller closes rows on the domain
      switch ({!Tp_hw.Dram.close_all} — hardware support that a
      revised contract could mandate), which the [close_rows] flag
      simulates. *)

val symbols : int

val run :
  Tp_kernel.Boot.booted ->
  samples:int ->
  rng:Tp_util.Rng.t ->
  Tp_channel.Leakage.result
(** Intra-core sender/receiver pair in domains 0/1 of [b]; when [b]'s
    configuration sets [Config.close_dram_rows] the domain-switch path
    additionally precharges all banks (the hypothetical hardware
    fix). *)
