(** Abstract interpretation of {!Ct_ir} programs over abstract
    microarchitectural state — the program-level engine behind
    [tpsim certify].

    The value domain is an interval with a secret-taint flag; the
    machine domains mirror {!Tp_hw} set-wise (CacheAudit-style): per
    set, the tags possibly resident, the tags whose residency may
    depend on the secret, and the tags definitely resident in every
    execution.  A set's leakage is the number of possibly-resident
    secret-dependent tags not covered by the must set, capped by the
    associativity; a structure's leakage is the sum over its sets.
    The result is a {e sound upper bound} on the residency information
    the program can deposit in each structure, in bits, for the
    {e unprotected} machine — configuration-dependent scrubbing is
    applied on top by {!Certify}. *)

type summary = {
  sm_l1d : int;  (** L1-D residency bits *)
  sm_l1i : int;  (** L1-I residency bits *)
  sm_tlb : int;  (** TLB bits (I + D + unified L2, summed) *)
  sm_bp : int;  (** branch-predictor bits (2 per secret site) *)
  sm_llc : int;  (** physically-indexed outer levels (L2 + LLC) *)
  sm_secret_sites : int list;
      (** branch sites reached under secret control or with a
          secret-dependent direction *)
}

val analyse :
  ?arrays_at:(string * int) list ->
  ?code_at:int ->
  Tp_hw.Platform.t ->
  Ct_ir.program ->
  public:(Ct_ir.reg * int) list ->
  summary
(** Analyse [p] on the given platform geometry.  [public] supplies
    concrete values for public parameters (unlisted public parameters
    are unknown-but-public); [Secret] parameters are unknown and
    tainted.  [arrays_at]/[code_at] pin the data/code layout exactly as
    {!Ct_ir.execute} does, so the abstract footprint and a dynamic run
    see the same addresses.

    Loops with interval-decided public bounds are unrolled concretely
    (bounded by a global fuel); all other control flow runs a
    join/widen fixpoint, so the analysis terminates on every program,
    including ones whose dynamic execution would not. *)

(** {1 Kernel-trace back-end}

    The engine behind {!Kcert}: the lifted switch/clone/destroy access
    traces are driven through the same abstract structures and the same
    touch/join rules as the Ct_ir analysis, so the must-coverage
    soundness argument lives in one place.  A fixed access pins its
    granules in every execution; a variable access (allocation- or
    schedule-dependent address) contributes may-residency only — it
    neither earns coverage nor destroys a must fact. *)

type kaccess = {
  ka_vaddr : int;
  ka_bytes : int;
  ka_fetch : bool;  (** instruction side (L1-I/ITLB) vs data side *)
  ka_fixed : bool;  (** same address in every execution of the path *)
}

type kcoverage = {
  kc_l1d : int;
  kc_l1i : int;
  kc_dtlb : int;
  kc_itlb : int;
  kc_l2tlb : int;
  kc_l2 : int;  (** 0 when the platform has no private L2 *)
  kc_llc : int;
}

val cover_trace : Tp_hw.Platform.t -> kaccess list -> kcoverage
(** Set-wise must-coverage of a lifted kernel trace: per structure,
    [sum over sets of min(|must granules|, ways)] — k distinct
    deterministic granules in a w-way set pin [min(k, w)] ways. *)

val btb_coverage : Tp_hw.Btb.geometry -> int list -> int
(** Must-coverage earned by the kernel's deterministic taken jumps:
    each fixed site leaves its (site, target) entry MRU in the set
    {!Tp_hw.Btb.set_of_addr} places it in, so k distinct sites in a
    w-way set pin [min(k, w)] ways. *)

val pht_coverage : Tp_hw.Bhb.geometry -> (int * bool * int) list -> int
(** Must-coverage earned by a deterministic conditional-branch trace
    (run-length encoded as [(site, taken, repeat)] triples), via an
    interval abstraction of the 2-bit counters under the gshare hash
    {!Tp_hw.Bhb.index_of}.  Starting from unknown counters and an
    unknown global history, an entry counts as covered when the trace
    forces its final prediction regardless of prior state.  Never
    exceeds [pht_entries] (QCheck-tested). *)
