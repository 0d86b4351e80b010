(** Stateless-interconnect (bus) contention model.

    The paper's taxonomy (§2.2 item 2) distinguishes stateful resources
    from stateless interconnects: time-sharing cannot leak through a
    bus, but {e concurrent} access can, as a reduction in available
    bandwidth.  No mainstream hardware supports bandwidth partitioning,
    which is why the paper's threat scenarios exclude cross-core covert
    channels; we model the bus anyway so the limitation is demonstrable
    (see the interconnect tests and the channel-taxonomy example).

    The model: each core's issue {e rate} is estimated from its own
    inter-transaction gaps (cores have independent clocks, so no
    shared wall-clock window exists); a transaction's queueing delay
    grows once the combined offered rate exceeds the bus's service
    rate.  [partitioned] mode measures each core against its own
    static share — the hypothetical hardware fix — so other cores'
    traffic cannot influence its delay. *)

type mode =
  | Open  (** no bandwidth control: the contemporary-hardware default *)
  | Partitioned
      (** hypothetical exact bandwidth partition: each core measured
          against its own static share only *)
  | Mba of float
      (** Intel memory-bandwidth-allocation style {e approximate}
          throttling: each core's rate is (loosely) capped at the given
          fraction of the service rate, but cross-core contention still
          reaches the delay — which is why the paper's footnote 5 calls
          MBA "insufficient for preventing covert channels" *)

type t

val create : ?name:string -> cores:int -> window:int -> slots_per_window:int -> unit -> t
(** The service rate is [slots_per_window / window] transactions per
    cycle.  [name] labels the performance-counter set. *)

val counters : t -> Tp_obs.Counter.set
(** Transaction/stall counters (observability only). *)

val set_mode : t -> mode -> unit

val set_partitioned : t -> bool -> unit
(** [set_partitioned t b] = [set_mode t (if b then Partitioned else
    Open)] (compatibility shorthand). *)

val record : t -> core:int -> now:int -> int
(** Record one transaction by [core] (the [now] argument is unused by
    the load model but kept so callers need no clock plumbing);
    returns the queueing delay in cycles to add to that transaction's
    latency. *)

val drain : t -> unit
(** Clear all load state (models a quiescent gap much longer than the
    bus's queueing horizon). *)

val parts : t -> Blob.part list
(** Every mutable model word, in snapshot order (see {!Blob.part}). *)
