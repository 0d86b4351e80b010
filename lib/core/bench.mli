(** Benchmark-regression harness behind [tpsim bench].

    Runs a fixed suite of simulator workloads (channel collections and
    a Splash solo run) as independent trials, once with [-j 1] and once
    on the parallel pool, and reports wall clock, simulated cycles/s,
    memory accesses/s (from the microarchitectural counters), speedup
    and max RSS.  Every trial digests its simulation output and the
    sequential/parallel digests must match bit-for-bit, so a reported
    speedup can never come from diverging computation.

    With [baseline] set, accesses/s is compared per experiment against
    the JSON emitted by an earlier run; a relative drop beyond
    [max_regress] percent is a failure.  Keep checked-in baselines
    generous — the gate exists to catch hot-path collapses, not host
    noise (see bench/baseline.json).  A baseline that cannot be read,
    has no [experiments] array or holds an incomplete entry fails the
    gate too. *)

type exp_result = {
  r_name : string;
  r_platform : string;
  r_trials : int;
  r_wall_seq : float;
  r_wall_par : float;
  r_speedup : float;
  r_cycles : int;
  r_accesses : int;
  r_cycles_per_sec : float;
  r_accesses_per_sec : float;
  r_deterministic : bool;
}
(** One suite row: sequential and parallel wall clock (for the
    replay-sweep row, live and replayed), simulator work and whether
    the two runs' digests matched. *)

val json_of_results :
  jobs:int -> quality:string -> exp_result list -> Tp_util.Json.t
(** The [tpsim-bench/1] document [--json] writes. *)

type regression

val check_baseline :
  max_regress:float ->
  baseline:Tp_util.Json.t ->
  exp_result list ->
  (regression list, string) result
(** Rows whose accesses/s dropped more than [max_regress] percent below
    the baseline document's; [Error] if the document is not a baseline. *)

val run :
  Quality.t ->
  seed:int ->
  jobs:int ->
  platforms:Tp_hw.Platform.t list ->
  json_out:string option ->
  baseline:string option ->
  max_regress:float ->
  unit ->
  int
(** Returns the intended exit code: 0, or 1 on a determinism mismatch,
    a baseline regression or an unreadable baseline (details on
    stderr). *)
