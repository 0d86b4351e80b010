(** Covert-channel measurement harness.

    Runs a Trojan (sender) and a spy (receiver) time-sharing one core
    in two security domains, exactly as in §5.3: each iteration the
    sender encodes a uniformly random symbol during its slice, then the
    receiver measures during its own slice; the pair (symbol,
    measurement) is one channel use.  {!run_pair_result} collects the
    dataset; {!Tp_channel.Leakage.test} judges it, as a separate call.

    The simulated machine is deterministic; real measurements are not.
    [noise_sigma] adds Gaussian measurement noise (cycles) to the
    receiver's outputs, modelling timer granularity and platform
    jitter, so the statistical test operates under realistic
    conditions (and so "no leak" results genuinely exercise the
    shuffle bound instead of comparing exact constants).

    The collection loop is checkpointed: slices run in chunks of
    [checkpoint_slices], samples recorded before a kernel fault are
    kept, and the loop recovers and resumes instead of aborting.  An
    optional cycle or wall-clock budget stops collection early with a
    partial, [degraded]-flagged dataset rather than failing.  An
    uninterrupted, unbudgeted run is bit-identical to an unchunked
    one. *)

type budget = { max_cycles : int option; max_wall_s : float option }

val no_budget : budget

type spec = {
  samples : int;  (** channel uses to record *)
  symbols : int;  (** input alphabet size *)
  slice_cycles : int;  (** time-slice length *)
  noise_sigma : float;  (** receiver measurement noise, cycles *)
  warmup : int;  (** initial iterations to discard *)
  checkpoint_slices : int;  (** slices per checkpointed chunk *)
  budget : budget;  (** optional collection limits *)
  replay : bool;
      (** allow record-once / replay-many sender slices ({!Tp_hw.Replay}).
          Bit-identical to live execution for senders whose entire
          observable behaviour goes through their [Uctx.t] (true of
          every shipped channel; clock/syscall use self-disqualifies by
          poisoning).  A sender that communicates through host-side
          state the machine never sees must set this to [false]. *)
  replay_seed : Tp_hw.Replay.t array option;
      (** per-symbol sender streams to start from (e.g. from
          {!record_streams}, or another trial's {!result.streams}).  A
          complete entry replays from the very first slice; an empty,
          unpoisoned entry ({!Tp_hw.Replay.length} 0) means "not
          recorded yet", so that symbol records on its first send; any
          other entry (cut short or poisoned) runs live.  [None], or an
          array of the wrong length, records every symbol lazily.  The
          harness only reads seed streams. *)
}

val default_spec : Tp_hw.Platform.t -> spec
(** 1 ms slices, 1500 samples, 4 symbols, small noise, 64-slice
    checkpoints, no budget, replay on (unseeded). *)

val record_streams :
  Tp_kernel.Boot.booted ->
  sender:(Tp_kernel.Uctx.t -> int -> unit) ->
  symbols:int ->
  slice_cycles:int ->
  Tp_hw.Replay.t array
(** Record one sender slice per symbol (0, 1, …) in domain 0 on core 0
    of [b], outside any trial.  Streams record op identities only, so a
    stream recorded on one freshly booted system replays
    bit-identically on any identically booted one.  Streams of senders
    that poison their recording, or that overrun the slice, come back
    incomplete ({!Tp_hw.Replay.complete} is false); as a [replay_seed]
    entry such a stream runs live. *)

type result = {
  data : Tp_channel.Mi.samples;  (** what was collected (possibly partial) *)
  degraded : bool;  (** fewer samples than requested *)
  degraded_reason : string option;
  recovered_faults : int;  (** kernel faults recovered mid-run *)
  checkpoints : int;
  switch_counters : Tp_obs.Counter.snapshot;
      (** delta of the kernel switch-path counters over the collection
          (all zeros unless counters are enabled, {!Tp_obs.Ctl}) *)
  cert : Tp_analysis.Certify.cert;
      (** certified leakage bound ({!Tp_analysis.Certify.certify_static})
          of the same configuration: any MI later measured from [data]
          must stay at or below [Certify.total_bits cert] — the
          cross-validation the certifier's test suite enforces *)
  streams : Tp_hw.Replay.t option array;
      (** per symbol, the complete sender stream the trial ended with:
          seeded or recorded on the symbol's first send.  [None] for a
          symbol never sent, one whose recording was cut short or
          poisoned, and every symbol when [spec.replay] is off.  Each
          is what {!record_streams} records for that symbol on a fresh
          boot, so a later trial may take it as its [replay_seed]
          entry. *)
}

type placement =
  | Same_core
      (** both domains time-share core 0 (§5.3): sender slice, then
          receiver slice *)
  | Concurrent
      (** receiver on core 1, both cores executing at once
          ({!Tp_kernel.Exec.run_concurrent}) *)
  | Coscheduled
      (** receiver on core 1, domains gang-scheduled so only one ever
          executes ({!Tp_kernel.Exec.run_coscheduled}, the §3.1.1
          confinement mitigation) *)

val run_pair_result :
  ?placement:placement ->
  Tp_kernel.Boot.booted ->
  sender:(Tp_kernel.Uctx.t -> int -> unit) ->
  receiver:(Tp_kernel.Uctx.t -> float option) ->
  spec ->
  rng:Tp_util.Rng.t ->
  result
(** [run_pair_result b ~sender ~receiver spec ~rng] runs the sender in
    domain 0 on core 0 and the receiver in domain 1 of [b], placed as
    [placement] says (default [Same_core]), and returns what was
    collected with its degradation metadata.  The receiver returns
    [None] for slices that should not produce a sample (e.g.
    calibration).  Never raises on partial or empty data: judge
    [data] with {!Tp_channel.Leakage.test}, which rejects an empty
    dataset. *)

val status_json : result -> string
(** The collection metadata of a result — degraded flag and reason,
    recovered fault count, checkpoints, samples kept — as one JSON
    object, the shape the fault tests print when a recovery check
    fails. *)

val point_chunk : string
(** ["harness.chunk"]: injection point crossed once per checkpointed
    collection chunk.  Arming it (e.g. [--inject harness.chunk:2])
    makes a kernel fault strike {e mid-collection}, driving the
    recover-and-resume path rather than a setup path. *)
