(** Time-protection configuration: which mechanisms are active.

    The evaluation (§5.2) compares three scenarios; each is a value of
    this record so experiments can also ablate individual mechanisms
    (e.g. padding off, prefetcher on — the knobs behind Tables 3/4 and
    the §5.3.2 prefetcher diagnosis). *)

type t = {
  colour_user : bool;  (** allocate user pools with disjoint colours *)
  clone_kernel : bool;  (** one cloned kernel image per domain (Req 2) *)
  flush_l1 : bool;  (** flush L1 I+D on domain switch (Req 1) *)
  flush_tlb : bool;  (** flush TLBs on domain switch (Req 1) *)
  flush_bp : bool;  (** flush BTB+BHB on domain switch (Req 1) *)
  flush_l2 : bool;
      (** flush the private L2 together with the L1: only takes effect
          with [flush_l1] (on its own it flushes nothing) and is
          implied by [flush_llc] — see {!flush_plan} *)
  flush_llc : bool;
      (** full-flush scenario: flush the whole hierarchy (L1, L2, LLC)
          in one [wbinvd]-style sequence *)
  disable_prefetcher : bool;  (** full-flush scenario: MSR prefetcher off *)
  pad_cycles : int;  (** pad domain switch to this latency; 0 = no pad (Req 4) *)
  partition_irqs : bool;  (** mask other kernels' IRQs (Req 5) *)
  prefetch_shared : bool;  (** prefetch residual shared data on switch (Req 3) *)
  close_dram_rows : bool;
      (** hypothetical hardware fix: precharge all DRAM banks on the
          domain switch, closing the row-buffer channel the current
          contract cannot (ablation; no real ISA offers this) *)
  cat_llc : bool;
      (** partition the LLC by ways with Intel CAT instead of (or in
          addition to) page colouring — the §2.3/CATalyst mechanism.
          Domains get disjoint class-of-service way masks. *)
}

val raw : t
(** No mitigation at all: the unmitigated-channel baseline. *)

val protected_ : Tp_hw.Platform.t -> t
(** The paper's time-protection implementation: coloured userland,
    cloned kernels, on-core flush, deterministic shared-data prefetch,
    IRQ partitioning, and padding set to a measured worst case
    (58.8 µs on x86, 62.5 µs on Arm — Table 4's pad values). *)

val full_flush : Tp_hw.Platform.t -> t
(** Maximal architected reset: flush the complete cache hierarchy and
    disable the prefetcher; no colouring, no cloning.  The expensive
    comparison point of §5.2/§5.3. *)

val pad_us : Tp_hw.Platform.t -> float
(** The per-platform default padding latency used by [protected_]. *)

val flush_plan : Tp_hw.Platform.t -> t -> Tp_hw.Flush.step list
(** The domain-switch flush steps of this configuration, in execution
    order — the only reader of the flush fields.  [flush_llc] takes
    precedence: it yields [L1_hw; L2; Llc] whatever [flush_l1] and
    [flush_l2] say.  Otherwise [flush_l1] yields [L1_hw] on platforms
    with an architected L1 flush and [L1_manual] elsewhere, followed
    by [L2] when [flush_l2] is also set.  [Tlb], [Bp] and [Dram_close]
    follow for [flush_tlb], [flush_bp] and [close_dram_rows].  The
    kernel executes this list, the linter bounds it, and both
    certifiers read from it which channels the switch scrubs. *)

type mechanism = {
  key : string;  (** the field name, also its JSON key *)
  get : t -> bool;
  set : t -> bool -> t;
}

val mechanisms : mechanism list
(** Every boolean mechanism of {!t}, in record order ([pad_cycles],
    the one integer field, is not a mechanism). *)

val strengthen : ?pad_for:(t -> int) -> t -> t list
(** One-step strengthenings: each disabled entry of {!mechanisms}
    enabled on its own (plus, when the current pad is below [pad_for t], a
    pad-raising step).  [pad_for] supplies the analytic worst-case
    switch cost for a candidate configuration (pass
    [Tp_analysis.Lint.pad_bound]); every candidate is re-padded to
    [max candidate-requirement original-pad], so enabling a flush —
    which raises the worst-case switch cost — cannot open the timing
    pseudo-channel that adequate padding had closed.  The certifier's
    monotonicity property ("more protection never certifies more
    bits") quantifies over exactly this lattice. *)
