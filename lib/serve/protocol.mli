(** Wire protocol of the campaign service.

    Requests and responses are newline-delimited JSON objects over a
    Unix-domain socket.  Requests carry an ["op"] field ([ping],
    [status], [metrics], [submit], [shutdown]); responses carry an ["event"]
    field.  A [submit] streams zero or more [progress] events before
    its final [result] (or [error]) event, so clients can render
    completion live.

    A {e job} names the sub-matrix to measure (platforms × protection
    configs × channels × trials) plus its robustness envelope: retry
    bound with exponential backoff for faulted trials, a deterministic
    per-trial simulated-cycle budget (degrades the trial, and is part
    of its cache key), a per-trial wall timeout and a per-job wall
    budget (which stop work but never poison the store — wall time is
    host-dependent, so wall-degraded trials are reported [failed] and
    recomputed on resume rather than cached).

    A trial's {e stored} form (what the result store files under the
    trial's key) contains only deterministic fields; per-execution
    metadata (retries, cache hit) ride the wire but never the disk, so
    a resumed sweep is bit-identical to an uninterrupted one. *)

type job = {
  j_id : string;
  j_platforms : string list;  (** platform names, e.g. ["haswell"] *)
  j_configs : string list;  (** scenario slugs, e.g. ["protected"] *)
  j_channels : string list;  (** channel slugs, e.g. ["l1d"; "kernel"] *)
  j_trials : int;  (** trials per (platform, config, channel) cell *)
  j_seed : int;
  j_samples : int;  (** harness samples per trial *)
  j_trial_cycle_budget : int option;
      (** deterministic per-trial simulated-cycle budget; in the key *)
  j_trial_timeout_s : float option;  (** wall timeout per trial attempt *)
  j_wall_budget_s : float option;  (** wall budget for the whole job *)
  j_max_retries : int;  (** extra attempts per faulted trial *)
  j_retry_backoff_s : float;  (** base backoff (doubles per attempt) *)
  j_replay : bool;
      (** allow record-once / replay-many sender slices (bit-identical
          to live execution; [--no-replay] turns it off for A/B
          debugging).  In the cache key. *)
}

val job : ?id:string -> ?platforms:string list -> ?configs:string list ->
  ?channels:string list -> ?trials:int -> ?seed:int -> ?samples:int ->
  ?trial_cycle_budget:int -> ?trial_timeout_s:float -> ?wall_budget_s:float ->
  ?max_retries:int -> ?retry_backoff_s:float -> ?replay:bool -> unit -> job
(** A job with service defaults: haswell × protected × l1d, 1 trial,
    seed 1, 300 samples, 2 retries, 50 ms base backoff, no budgets,
    replay on. *)

type status = Complete | Degraded | Failed

val status_name : status -> string
val status_of_name : string -> status option

type trial = {
  t_platform : string;
  t_config : string;
  t_channel : string;
  t_trial : int;
  t_key : string;  (** content-address in the result store *)
  t_status : status;
  t_mi_bits : float;
  t_m0_bits : float;
  t_verdict : string;  (** "leak" / "no-evidence" / "negligible" / "no-data" *)
  t_n : int;  (** samples the verdict is based on *)
  t_cert_bits : int;
      (** certified leakage bound recorded at compute time
          ({!Tp_analysis.Certify.total_bits}); the drift monitor flags a
          leak verdict whose measured MI exceeds it *)
  t_kcert_bits : int;
      (** certified kernel switch-path bound
          ({!Tp_analysis.Kcert.total_bits}); the drift monitor uses
          this bound instead for trials that exercise the switch path
          (kernel/flush channels) *)
  t_kcert_digest : string;
      (** content digest of the switch-path kernel certificate the
          trial ran under ({!Tp_analysis.Kcert.digest}) — ties every
          stored trial to a checked-in golden certificate *)
  t_kcert_clone_digest : string;
      (** digest of the clone-path kernel certificate (schema v4) *)
  t_kcert_destroy_digest : string;
      (** digest of the destroy-path kernel certificate (schema v4) *)
  t_code_rev : string;
      (** executable digest ({!Engine.code_rev}) recorded next to the
          certificate digest *)
  t_degraded_reason : string option;
  t_recovered_faults : int;  (** harness recoveries (PR 1 contract) *)
  t_checkpoints : int;
  t_retries : int;  (** execution metadata — never stored *)
  t_cached : bool;  (** execution metadata — never stored *)
}

type job_result = {
  r_id : string;
  r_status : status;  (** [Complete] iff every trial is [Complete] *)
  r_reason : string option;
  r_total : int;
  r_computed : int;
  r_cached : int;
  r_degraded : int;
  r_failed : int;
  r_retried : int;  (** total retry attempts across trials *)
  r_digest : string;
      (** digest over the sorted (key, stored-content digest) pairs of
          all non-failed trials: bit-identity anchor for crash-resume *)
  r_trials : trial list;  (** in deterministic cell order *)
}

type progress = {
  p_done : int;
  p_total : int;
  p_cached : int;
  p_failed : int;
  p_retried : int;
  p_dropped_spans : int;
      (** trace-ring spans overwritten so far (0 unless tracing) *)
}

(** {1 Stored form (result-store blobs)} *)

val stored_of_trial : trial -> string
(** Canonical JSON blob for the store: deterministic fields only. *)

val trial_of_stored : key:string -> string -> (trial, string) result
(** Parse a store blob back ([t_cached = true], [t_retries = 0]). *)

(** {1 Wire form} *)

val job_to_json : job -> Tp_util.Json.t
val job_of_json : Tp_util.Json.t -> (job, string) result
val trial_to_json : trial -> Tp_util.Json.t
val result_to_json : job_result -> Tp_util.Json.t
val result_of_json : Tp_util.Json.t -> (job_result, string) result
val progress_to_json : progress -> Tp_util.Json.t
val progress_of_json : Tp_util.Json.t -> (progress, string) result

val submit_line : job -> string
val ping_line : string
val status_line : string
val metrics_line : string
val shutdown_line : string
(** Complete request lines (no trailing newline).  [metrics_line]
    requests a point-in-time OpenMetrics snapshot; the daemon answers
    with a single [metrics] event carrying the exposition text. *)

(** {1 Line framing on a socket}

    One pair for both ends: the daemon and the client read and write
    lines through these, on a raw fd kept for both directions. *)

val write_line : Unix.file_descr -> string -> unit
(** Write [line] and a newline, resuming after short writes.
    @raise Unix.Unix_error as [Unix.write] does (e.g. [EPIPE] on a dead
    peer); each end decides what a failed write means. *)

val read_lines :
  Unix.file_descr -> (string -> bool) -> [ `Stopped | `Closed | `Reset ]
(** Feed each received non-blank line, without its newline, to [f]
    until [f] returns [false] ([`Stopped]), the peer closes the
    connection ([`Closed]) or resets it ([`Reset], [ECONNRESET] or
    [EPIPE]). *)
