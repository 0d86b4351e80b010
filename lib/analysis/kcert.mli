(** Kernel lifecycle certifier ([tpsim certify --kernel]).

    Lifts the three kernel lifecycle paths — the paper-ordered 12-step
    [Tp_kernel.Domain_switch.switch] sequence, the image clone
    ([Tp_kernel.Clone.clone]) and its teardown
    ([Tp_kernel.Clone.destroy]) — into analysable access traces
    ({!lift}) and abstract-interprets them with set-wise
    {e must-coverage} through the unified {!Absint} kernel-trace
    back-end: deterministic accesses at layout-fixed virtual addresses
    pin ways of the virtually-indexed structures to public content,
    and the certified per-execution residue of each channel is its
    structural capacity minus that coverage — or 0 when the
    configuration closes the channel (flush or spatial partition).
    Variable-address accesses contribute no coverage;
    physically-indexed caches get zero coverage (sound
    under-approximation).  The branch predictor earns coverage through
    the model's own index hashes ({!Tp_hw.Btb.set_of_addr},
    {!Tp_hw.Bhb.index_of}) from each path's deterministic jump sites
    and run-length-encoded conditional-branch trace.

    Clone/destroy certificates also carry the operation's analytic
    duration bound ([k_op_bound]): their latency is caller-visible, so
    with stateful channels left open it contributes ⌈log₂ (bound + 1)⌉
    timing bits ({!Certify.pad_slack} with a 0 pad), and with every
    channel scrubbed/partitioned it is deterministic and contributes
    none.

    Cross-validated two ways: {!Certify.exhaustive}
    (observational determinism under all 3-domain schedules of the
    shrunken machine with the neighbour performing this path's
    operation, [CERT-K-XCHECK-EXHAUSTIVE] on contradiction) and
    {!check_sound} (the certificate must stay inside its
    [Tp_hw.Bounds]-derived analytic envelope, [TP-KCERT-UNSOUND]
    otherwise — the linter runs this per platform/config/path).

    Certificates serialise to deterministic, content-digested JSON
    ({!to_json}); the digest covers everything {e except} the
    exhaustive block ({!digest}), so the campaign daemon can stamp
    trials with the same digest without model checking. *)

val schema : string
(** ["tpsim-kcert/2"], embedded in every artifact.  v2 added the
    [path] / [op_bound] fields and per-step [branches] / [jumps]. *)

(** {1 Rule identifiers} *)

val rule_l1d_residue : string
val rule_l1i_residue : string
val rule_tlb_residue : string
val rule_btb_residue : string
val rule_llc_residue : string

val rule_pad_timing : string
(** ["CERT-K-PAD-TIMING"]: residual timing bits — configured pad below
    the analytic worst-case switch cost, or an unscrubbed lifecycle
    operation's state-dependent duration. *)

val rule_xcheck : string
(** ["CERT-K-XCHECK-EXHAUSTIVE"]: a 0-bit kernel certificate
    contradicted by a 3-domain exhaustive counterexample. *)

val channel_rule : Certify.channel -> string

(** {1 Paths} *)

type path = Certify.kernel_path = Switch | Clone | Destroy

(** {1 The lifted traces} *)

type access = {
  a_what : string;
  a_vaddr : int;
  a_bytes : int;
  a_kind : Tp_hw.Defs.access_kind;
  a_must : bool;
      (** address identical on every execution: counts toward coverage *)
}

type step = {
  s_index : int;  (** 1-based step number (paper order for the switch) *)
  s_name : string;
  s_accesses : access list;
  s_flushes : string list;  (** flush operations, by name *)
  s_branches : (int * bool * int) list;
      (** deterministic conditional branches, RLE [(site, taken, repeat)] *)
  s_jumps : int list;  (** fixed taken-jump sites (BTB coverage) *)
}

val lift : ?path:path -> Tp_hw.Platform.t -> Tp_kernel.Config.t -> step list
(** The lifted trace of the given path (default [Switch]) under this
    configuration: the 12 steps of a domain-crossing switch, the 6
    steps of a clone, or the 6 steps of a destroy, with the exact
    accesses the implementation performs at the virtual addresses
    [Tp_kernel.Layout] fixes.  The x86 manual L1 flush appears as its
    real flush-buffer sweep, so its scrubbing effect is derived from
    coverage rather than asserted. *)

(** {1 Reference coverage (differential-test oracle)} *)

val covered_cache : Tp_hw.Cache.geometry -> access list -> int
(** The original standalone set-wise must-coverage of a cache by a
    (pre-filtered, must-only) access list.  Kept as an independent
    reference implementation: the differential test checks that the
    unified {!Absint.cover_trace} back-end reproduces it bit-for-bit.
    New code should use the Absint back-end. *)

val covered_tlb : Tp_hw.Tlb.geometry -> int list -> int
(** Reference TLB coverage from a virtual-page-number list. *)

val pages_of : access list -> int list
(** Virtual page numbers overlapped by the accesses (with
    duplicates). *)

(** {1 Certificates} *)

type cert = {
  k_platform : string;
  k_config_name : string;  (** scenario slug, e.g. ["protected"] *)
  k_config : Tp_kernel.Config.t;
  k_path : path;
  k_steps : step list;
  k_bounds : Certify.bound list;
  k_timing_bits : int;
  k_pad_bound : int;
  k_pad_effective : int;
  k_op_bound : int;
      (** analytic duration bound of the lifecycle operation
          ({!Lint.clone_bound} / {!Lint.destroy_bound}); 0 for the
          (padded) switch path *)
  k_exhaustive : Certify.exhaustive_result option;
  k_exclusions : string list;
}

val state_bits : cert -> int
val total_bits : cert -> int

val certify :
  ?exhaustive:Certify.exhaustive_result ->
  ?path:path ->
  Tp_hw.Platform.t ->
  config_name:string ->
  Tp_kernel.Config.t ->
  cert
(** Certify one (platform, configuration, path) — [path] defaults to
    [Switch].  Pure: no machine traffic.  Pass [exhaustive] (from
    {!Certify.exhaustive} with the same path) to embed the
    cross-validation result in the certificate (outside the
    digest). *)

(** {1 Soundness canary} *)

val analytic_worst_bits :
  ?path:path -> Tp_hw.Platform.t -> Tp_kernel.Config.t -> int
(** The analytic envelope: every channel at full structural capacity
    plus the pad-slack capacity of {!Lint.pad_bound} and (for
    clone/destroy) the operation-duration capacity.  No sound
    certificate can exceed it. *)

val check_sound : Tp_hw.Platform.t -> cert -> Diag.finding list
(** [TP-KCERT-UNSOUND] findings when the certificate escapes its
    envelope: a channel above its structural capacity, timing bits
    above the pad+operation capacity, or the total above
    {!analytic_worst_bits} for the certificate's path.  Empty on every
    sound certificate. *)

val lint_crosscheck :
  Tp_hw.Platform.t -> config_name:string -> Tp_kernel.Config.t ->
  Diag.finding list
(** {!certify} then {!check_sound} for {e all three} paths — the
    linter's per-configuration unsoundness canary. *)

(** {1 Diagnostics} *)

val report : cert -> Diag.report
(** Findings for every non-zero channel residue ([CERT-K-*-RESIDUE]),
    residual timing bits ([CERT-K-PAD-TIMING]) and an exhaustive
    contradiction ([CERT-K-XCHECK-EXHAUSTIVE]); clean iff the
    certificate is 0 bits and uncontradicted. *)

val pp : Format.formatter -> cert -> unit

(** {1 Deterministic artifact JSON + digest} *)

val core_json : cert -> string
(** The digested payload: schema, platform, config, path, bits,
    per-channel bounds, the lifted steps (with branches and jumps) and
    the exclusions — everything except the exhaustive block. *)

val digest : cert -> string
(** MD5 hex of {!core_json}.  Identical whether or not the exhaustive
    check ran. *)

val to_json : cert -> string
(** {!core_json} plus the exhaustive result (when present) and the
    {!digest} — the golden-certificate artifact format. *)

val artifact_name : cert -> string
(** ["<platform>-<config_name>-<path>.cert.json"]. *)
