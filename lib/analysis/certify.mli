(** The leakage certifier ([tpsim certify]).

    From the linter's pure {!Lint.view} of a booted system, derive a
    {e sound upper bound} in bits on what one domain can transfer to
    another through each microarchitectural channel, specialised by
    the configuration: scrubbed or spatially partitioned channels
    certify to 0 bits, open channels to their structural capacity (or
    to the {!Absint} program footprint when a guest program is given).
    A second, independent engine does small-scope model checking on a
    {!Tp_hw.Shrink} machine — exhaustive two-domain schedules, checked
    for observational determinism across victim secrets — and the two
    cross-validate ({!crosscheck}).

    The certificate covers exactly five channels (L1-D, L1-I, TLB,
    branch predictor, physically-indexed outer caches) plus the
    pad-slack timing pseudo-channel; {!exclusions} names what it does
    {e not} cover (prefetcher stream state, DRAM rows, interconnect
    contention, interrupt timing). *)

(** {1 Rule identifiers} *)

val rule_l1d_residue : string
val rule_l1i_residue : string
val rule_tlb_residue : string
val rule_btb_residue : string
val rule_llc_residue : string

val rule_pad_timing : string
(** ["CERT-PAD-TIMING"]: effective pad below the analytic worst-case
    switch cost — residual timing bits. *)

val rule_noninterference : string
(** ["CERT-NONINTERFERENCE"]: the exhaustive check found a concrete
    distinguishing schedule. *)

val rule_xcheck : string
(** ["CERT-XCHECK-EXHAUSTIVE"]: a 0-bit certificate contradicted by an
    exhaustive counterexample — the certifier itself is unsound for
    this configuration. *)

(** {1 Certificates} *)

type channel = L1d | L1i | Tlb | Bp | Llc

val channel_name : channel -> string
val channel_rule : channel -> string

val channels : channel list
(** The five certified channels, in certificate order. *)

type bound = {
  b_channel : channel;
  b_raw : int;  (** bits reachable with no protection at all *)
  b_covered : int;
      (** ways a kernel path's deterministic accesses pin to public
          content ({!Kcert}); 0 in guest certificates *)
  b_bits : int;  (** certified bound under this configuration *)
  b_scrubbed : bool;
  b_note : string;
}
(** One channel's certified bound, for guest and kernel certificates
    alike. *)

type cert = {
  c_subject : string;
  c_platform : string;
  c_config : Tp_kernel.Config.t;
  c_n_domains : int;
  c_bounds : bound list;
  c_timing_bits : int;
  c_pad_bound : int;
  c_pad_effective : int;
  c_program : string option;
  c_exclusions : string list;
}

val state_bits : cert -> int
val total_bits : cert -> int

val pad_slack : bound:int -> pad:int -> int
(** Timing bits of a duration that can land anywhere in
    [[pad, bound]]: [⌈log₂ (bound − pad + 1)⌉], 0 when [pad >= bound].
    The switch's pad slack in both certifiers, and (with [pad = 0]) an
    unpadded kernel operation's duration in {!Kcert}. *)

val capacity : Tp_hw.Platform.t -> channel -> int
(** A channel's structural capacity in bits: cache lines (the outer
    channel counts the private L2 and the LLC), TLB entries, BTB
    entries plus PHT counters. *)

val exclusions : string list

type closure = {
  cl_l1 : bool;  (** L1-D and L1-I *)
  cl_tlb : bool;
  cl_bp : bool;
  cl_l2 : bool;  (** the private-L2 level of the outer-cache channel *)
  cl_llc : bool;  (** the LLC level of the outer-cache channel *)
  cl_llc_flushed : bool;  (** the plan flushes the whole hierarchy *)
  cl_partitioned : bool;  (** coloured userland and cloned kernels *)
}
(** Which certified channels (and outer-cache levels) are closed. *)

val closure :
  Tp_hw.Flush.step list -> partitioned:bool -> cat:bool -> closure
(** The channels closed by a switch-flush plan
    ({!Tp_kernel.Config.flush_plan}) together with the caller's
    partition facts: [partitioned] (coloured userland and cloned
    kernels) closes both outer levels, [cat] (disjoint CAT way masks)
    the LLC level only.  Shared by {!certify_view}, which checks the
    facts on the booted view, and {!Kcert.certify}, which takes the
    configuration's claim. *)

val bounds :
  Tp_hw.Platform.t ->
  closure ->
  raw:(channel -> int) ->
  covered:(channel -> int) ->
  open_note:(channel -> string) ->
  bound list
(** The five bounds, in {!channels} order, of a closure: the one place
    a closure becomes certified bits.  A closed channel certifies to 0
    bits with a note naming its flush or partition; an open one to its
    [raw] bits less its [covered] ways, noted by [open_note].  The
    outer-cache channel's [raw] bits fill the private L2 first; each
    level is closed on its own, and the channel counts as scrubbed when
    no open level is left with bits.  {!certify_view} passes
    footprint-tightened capacities and no coverage; {!Kcert.certify}
    full capacities and its traces' coverage. *)

val certify_view :
  ?subject:string ->
  ?program_summary:Absint.summary ->
  ?program_name:string ->
  Lint.view ->
  cert
(** Certify a configuration from its view.  With [program_summary],
    per-channel raw capacities are tightened to the program's abstract
    footprint.  Pure: no machine traffic. *)

val certify_static : ?subject:string -> Tp_kernel.Boot.booted -> cert
(** {!certify_view} of {!Lint.view_of_booted} — safe to call from
    inside a measurement (the attack harness records one per run). *)

val certify_fixture : ?subject:string -> Lint.view -> Ctcheck.fixture -> cert
(** Program-level certificate: {!Absint.analyse} the fixture's program
    and certify its footprint under the view's configuration. *)

val report : cert -> Diag.report
(** Findings for every non-zero channel bound ([CERT-*-RESIDUE]) and
    for residual timing bits ([CERT-PAD-TIMING]); clean iff the
    certificate is 0 bits overall. *)

val pp : Format.formatter -> cert -> unit
val cert_to_json : cert -> string

(** {1 Small-scope exhaustive noninterference check} *)

val small_victim : Ct_ir.program
(** The square-and-multiply-shaped victim the check runs: every secret
    bit gates an L1-filling sweep, extra TLB pressure, and extra
    branch activity. *)

type counterexample = {
  cx_schedule : string;  (** e.g. ["VAVA"]: victim/attacker turns *)
  cx_secret_a : int;
  cx_secret_b : int;
  cx_turn : int;  (** attacker-turn ordinal within the schedule *)
  cx_index : int;  (** observation index; 0 is the turn timestamp *)
  cx_obs_a : int;
  cx_obs_b : int;
}

type exhaustive_result = {
  ex_platform : string;  (** the shrunken platform's name *)
  ex_domains : int;  (** 2, or 3 with the public neighbour *)
  ex_horizon : int;
  ex_schedules : int;
  ex_secrets : int list;
  ex_counterexample : counterexample option;  (** [None] = passed *)
}

(** {2 Kernel lifecycle paths}

    Which lifted kernel path a kernel certificate (and its exhaustive
    cross-check) covers.  The 'D' turn of a 3-domain schedule is the
    kernel acting on the neighbour's behalf: a plain domain switch, a
    clone of its kernel image ({!Tp_hw.Shrink.clone_op}), or the
    teardown of one ({!Tp_hw.Shrink.destroy_op}). *)

type kernel_path = Switch | Clone | Destroy

val kernel_path_slug : kernel_path -> string
(** ["switch"] / ["clone"] / ["destroy"] — the artifact-name and JSON
    spelling. *)

val all_kernel_paths : kernel_path list
(** [[Switch; Clone; Destroy]], the full certification matrix. *)

val exhaustive :
  ?path:kernel_path ->
  domains:int -> Tp_hw.Platform.t -> Tp_kernel.Config.t -> exhaustive_result
(** Enumerate every [domains]-domain schedule of the horizon
    ([2 <= domains <= 3]) on the {!Tp_hw.Shrink.tiny} machine; run the
    victim under each secret; require every attacker observation
    (timestamps, probe latencies, branch latencies) to be identical
    across secrets.  The domain switch runs the configuration's
    switch-flush plan ({!Tp_hw.Shrink.apply}; the manual L1 flush
    becomes the architected one at machine scope) and pads each turn
    to [pad_cycles].  DRAM rows are always precharged — the row-buffer
    channel is outside the certified scope ({!exclusions}).

    With three domains, a deterministic public neighbour joins the
    victim and attacker: it makes no observations, but its
    secret-perturbed footprint can relay state to a later attacker
    turn (the transitive V→D→A channel).  The neighbour runs on the
    attacker's page parity — the 2-colour shrink cannot give three
    domains disjoint colours, exactly as a real 2-colour allocation
    folds extra domains onto existing colours.  Its 'D' turn is the
    kernel lifecycle operation [path] (default [Switch]); the 3-domain
    check is the confirmation required for kernel-path
    certificates. *)

val exhaustive_findings : exhaustive_result -> Diag.finding list
(** [CERT-NONINTERFERENCE] with the concrete distinguishing schedule,
    or [] when the check passed. *)

val crosscheck : cert -> exhaustive_result -> Diag.finding list
(** [CERT-XCHECK-EXHAUSTIVE] when a 0-bit certificate coexists with a
    counterexample. *)

val exhaustive_to_json : exhaustive_result -> string
(** Canonical JSON for an exhaustive result, embedded in certificate
    artifacts and the [certify --json] output. *)
