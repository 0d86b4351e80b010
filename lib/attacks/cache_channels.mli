(** The intra-core prime&probe channels of Table 3.

    Each channel packages a sender (Trojan) and receiver (spy) pair for
    {!Harness.run_pair_result}.  The sender encodes its symbol as the
    number of sets/entries it touches in the target structure; the
    receiver reports the time to probe its own buffer (or, for
    predictors, a misprediction-dominated traversal time), exactly as in
    the paper:

    - L1-D / L1-I: Mastik-style prime&probe over cache-sized buffers
      (virtually indexed — colouring cannot help, only flushing);
    - TLB: one read per page over a page array;
    - BTB: chained jumps whose slots alias between domains;
    - BHB: conditional-branch history pollution
      (Evtyushkin et al. residual-state channel);
    - L2: physically-indexed prime&probe (x86 only — colourable, and
      the seat of the residual prefetcher channel of §5.3.2). *)

type t = {
  name : string;
  symbols : int;
  prepare :
    Tp_kernel.Boot.booted ->
    (Tp_kernel.Uctx.t -> int -> unit) * (Tp_kernel.Uctx.t -> float option);
      (** Allocate buffers in the two domains and return the
          (sender, receiver) closures. *)
}

val l1d : t
val l1i : t
val tlb : t
val btb : Tp_hw.Platform.t -> t
(** Probe ranges differ per platform (§5.3.2: slots 3584–3712 on
    Haswell, 0–512 on Sabre). *)

val bhb : t
val l2 : t
(** Meaningful on x86 only (the Sabre's L2 is the shared LLC). *)

val all : Tp_hw.Platform.t -> t list
(** The Table 3 row set for the platform. *)
