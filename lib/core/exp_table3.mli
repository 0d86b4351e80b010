(** Table 3: mutual information of the intra-core channels (L1-D,
    L1-I, TLB, BTB, BHB, and on x86 the L2) under raw, full-flush and
    protected scenarios — plus the §5.3.2 diagnosis column: the x86 L2
    residual channel re-measured with the prefetcher disabled. *)

type cell = {
  scenario : string;
  leak : Tp_channel.Leakage.result;
  degraded : bool;  (** partial measurement (budget/fault recovery) *)
}

type row = { channel : string; cells : cell list }

type result = { platform : string; rows : row list }

val run : Quality.t -> seed:int -> Tp_hw.Platform.t -> result
(** Every channel of the platform.  The prefetcher-off ablation runs
    automatically for the x86 L2 row. *)
