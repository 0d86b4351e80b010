(** Deterministic parallel execution of independent trials.

    The paper's evaluation is embarrassingly parallel: every table and
    figure aggregates independent, seed-determined trials.
    {!run_ordered} fans such trials out across [Domain.spawn] workers
    and the calling domain, all pulling task indices from one shared
    atomic counter (work stealing in its simplest form: whichever
    domain is free takes the next trial).  Between its own tasks the
    calling domain commits finished results in trial order, so a
    caller can store and report each one while the others still run,
    and stop the run early.  {!run} is that loop with a commit that
    fills the result array.

    {2 Determinism contract}

    A parallel run is {e bit-identical} to [~jobs:1] provided each task
    obeys the isolation rules:

    - the task creates every simulator object it uses (machine, boot,
      threads) — never sharing mutable simulator state across tasks;
    - all randomness comes from the task's own stream, derived from the
      trial index ({!Tp_util.Rng.of_trial} or an equivalent pure
      function of [(seed, index)]);
    - observability flags ({!Tp_obs.Ctl}) are toggled only outside
      [run].

    The pool supplies the rest: kernel object ids are allocated from a
    per-task region (at {e every} jobs level, so id-derived values
    match between sequential and parallel runs); per-domain counter
    registries are summed into the caller's registry at join in a fixed
    worker order; traced events are captured per task and replayed into
    the caller's ring in trial order, each just before its task's
    commit.  [~jobs:1] is the same loop on the calling domain alone.

    Tasks must not themselves call [run] (no nesting), and anything
    relying on ambient global state not listed above (e.g. an armed
    {!Tp_fault} plan) is not parallel-safe — [tpsim] forces [~jobs:1]
    under [--inject]. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what the host offers. *)

val set_default_jobs : int -> unit
(** Set the process default used when [?jobs] is omitted (clamped to
    [>= 1]).  The CLI's [-j]/[--jobs] lands here. *)

val default_jobs : unit -> int

val validate_jobs : jobs:int option -> inject:bool -> (int, string) result
(** Resolve a CLI jobs request against the fault-injection constraint.
    [Ok j] is the jobs level to install ([recommended_jobs] when
    unspecified, 1 when unspecified under injection).  An {e explicit}
    request for more than one worker while a fault plan is armed is
    [Error msg]: fault plans are process-global one-shot state, so
    concurrent workers would race the armed crossing — the combination
    is rejected, not silently downgraded. *)

val run_ordered :
  ?jobs:int ->
  int ->
  (int -> 'a) ->
  commit:(int -> 'a -> [ `Continue | `Stop ]) ->
  unit
(** [run_ordered ~jobs n f ~commit] evaluates [f 0 ... f (n-1)] on
    [min jobs n] domains (the calling domain works too) and calls
    [commit i (f i)] in the calling domain for [i = 0, 1, ...] in
    order, each exactly once, as soon as every lower index has
    committed and the calling domain is between tasks.  [`Stop] ends
    the run: no task is claimed after it, [commit] is not called
    again, and tasks already running finish and are dropped.  If a
    task raises, no task is claimed after it; the tasks below the
    lowest-index failing one commit, and that task's exception is
    re-raised (with its backtrace) after all workers have joined.  An
    exception from [commit] stops the run the same way and is
    re-raised after the join. *)

val run : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [run ~jobs n f] computes [[| f 0; ...; f (n-1) |]]: {!run_ordered}
    with a commit that fills the array.  If any task raises, the
    exception of the lowest-index failing task is re-raised. *)

val map_list : ?jobs:int -> 'a list -> (int -> 'a -> 'b) -> 'b list
(** [map_list xs f] is {!run} over a list, preserving order: element
    [i] is mapped by [f i x]. *)
