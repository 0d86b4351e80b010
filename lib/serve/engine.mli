(** Job execution engine of the campaign service.

    Expands a {!Protocol.job} into its deterministic cell list
    (platform × config × channel × trial, in job order), answers
    already-stored cells from the result store, and runs the rest as
    one {!Tp_par.Pool.run_ordered} run.  Results are committed in cell
    order as they arrive — stored, recorded, checked against the
    circuit breaker and the wall budget, and reported as progress — so
    a job's reply does not depend on the jobs level.

    Robustness contract (the headline of this subsystem):

    - {e retry with backoff}: a trial that raises (worker fault) or
      times out is retried up to [j_max_retries] times with exponential
      backoff before being reported [Failed];
    - {e circuit breaking}: after {!circuit_threshold} consecutive
      trial failures (post-retry, in cell order), remaining cells are
      skipped and the job degrades — a sick worker pool cannot burn
      the whole budget;
    - {e graceful degradation}: a job that exhausts its wall budget
      (checked before the run and after every commit) returns
      everything committed so far, marked [Degraded] with a reason,
      mirroring the harness's budget contract.  Every cell not yet
      committed when the circuit opens or the budget runs out is
      reported [Failed] with that reason and never stored, even if a
      worker had already computed it;
    - {e idempotent resubmission}: every completed cell is stored, in
      cell order, before the job reports it, so resubmitting after any
      interruption (including [kill -9] — see the crash-resume tests)
      continues from the store and converges to a result bit-identical
      to an uninterrupted run;
    - {e honest caching}: only deterministic outcomes are stored.
      Wall-clock-degraded trials are host-dependent, so they are
      reported [Failed] (recomputable) and never written back.

    Each cell crosses the {!Tp_fault} point [job_dispatch] once, just
    before it is computed, so the fail-at-step-N driver can crash a
    sweep between any two cells and prove crash-resume bit-identity.
    Fault plans force [-j 1], so under injection that crossing is
    always in the calling domain. *)

type cell = {
  cl_platform : string;  (** platform slug, e.g. ["haswell"] *)
  cl_plat : Tp_hw.Platform.t;
  cl_config : string;  (** scenario slug *)
  cl_kind : Tp_core.Scenario.kind;
  cl_channel : string;
  cl_trial : int;
}

val point_dispatch : string
(** ["job_dispatch"] *)

val circuit_threshold : int
(** Consecutive post-retry failures that open the circuit (5). *)

val config_slugs : (string * Tp_core.Scenario.kind) list
(** The job protocol's config names: {!Tp_core.Scenario.slugs}. *)

val channel_slugs : string list
(** [l1d; l1i; tlb; btb; bhb; l2; kernel; flush]. *)

val code_rev : unit -> string
(** Digest of the running executable: the "code rev" component of
    every cache key, so results never survive a rebuild. *)

val cells_of_job : Protocol.job -> (cell list, string) result
(** Validate names and expand, preserving job list order. *)

val cell_key : code_rev:string -> Protocol.job -> cell -> string
(** The store key of one cell: digest over schema, platform, config,
    channel, seed, samples, cycle budget and trial index. *)

val compute_cell : Protocol.job -> cell -> (string, string) result
(** Run one trial (fresh boot, per-cell RNG stream) and return its
    stored blob, or [Error reason] for non-cacheable outcomes (wall
    timeout, empty collection).  The blob records the trial's certified
    leakage bounds — {!Tp_analysis.Certify.total_bits} of the harness
    cert plus the kernel certificate fields of {!kcert_for} — and the
    code rev, so the drift monitor can compare measured MI against them
    forever after. *)

type kcert_fields = {
  kc_bits : int;  (** {!Tp_analysis.Kcert.total_bits} of the switch path *)
  kc_digest : string;  (** switch-path certificate digest *)
  kc_clone_digest : string;
  kc_destroy_digest : string;
}
(** The kernel lifecycle certificate fields stored with every trial. *)

val kcert_for : cell -> kcert_fields
(** The cell's kernel certificate fields: {!Tp_analysis.Kcert.certify}
    of its (platform, config) on each path.  They depend on nothing
    else, so each combination is certified once per process and
    memoised (mutex-guarded: under [-j N] the first lookup certifies
    and concurrent ones wait for it). *)

val switch_path_channels : string list
(** [kernel; flush]: the channels whose measurements exercise the
    kernel's domain-switch path, bounded by the {!Tp_analysis.Kcert}
    certificate rather than the guest-level one. *)

val drifting : Protocol.trial -> bool
(** The leakage-drift predicate: a non-failed trial with a leak verdict
    whose measured MI exceeds its recorded certified bound — the kernel
    switch-path bound for {!switch_path_channels}, the guest bound
    otherwise.  Such trials bump [tpsim_engine_mi_over_cert_total] and
    raise an [mi_over_cert] event-log alert. *)

val run_job :
  store:Tp_store.Store.t ->
  ?code_rev:string ->
  ?jobs:int ->
  ?progress:(Protocol.progress -> unit) ->
  ?compute:(Protocol.job -> cell -> (string, string) result) ->
  Protocol.job ->
  (Protocol.job_result, string) result
(** Execute a job.  [Error] only for invalid jobs (unknown platform /
    config / channel names); execution trouble degrades the result
    instead.  [compute] is a test seam (defaults to {!compute_cell});
    [jobs] defaults to the pool default.  Store write failures and
    armed [job_dispatch] faults propagate as exceptions — they are the
    simulated crashes of the crash-resume tests. *)
