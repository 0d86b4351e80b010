let recommended_jobs () = Domain.recommended_domain_count ()

(* Campaign telemetry (no-ops unless Tp_obs.Metrics is enabled): how
   work spread across domains and how busy each slot was.  Slot 0 is
   the calling domain; spawned workers are slots 1..jobs-1, and every
   task they claim is a "steal" off the shared counter.  Workers keep
   plain per-slot tallies (one writer each) and the coordinator folds
   them into the registry at join, so recording never races. *)
let m_runs =
  Tp_obs.Metrics.counter ~help:"Pool runs, each one ordered claim loop."
    "tpsim_pool_runs_total"

let m_tasks =
  Tp_obs.Metrics.counter ~help:"Tasks executed, per domain slot."
    "tpsim_pool_tasks_total"

let m_steals =
  Tp_obs.Metrics.counter
    ~help:"Tasks claimed by spawned workers (slot > 0)."
    "tpsim_pool_steals_total"

let m_busy_us =
  Tp_obs.Metrics.counter ~help:"Wall microseconds spent inside tasks, per \
                                domain slot."
    "tpsim_pool_busy_us_total"

let m_idle_us =
  Tp_obs.Metrics.counter
    ~help:"Wall microseconds a slot spent idle within its pool run."
    "tpsim_pool_idle_us_total"

let us f = int_of_float (f *. 1e6)

let record_slots ~wall tasks busy =
  let n = Array.length tasks in
  for slot = 0 to n - 1 do
    let labels = [ ("domain", string_of_int slot) ] in
    Tp_obs.Metrics.inc m_tasks ~labels ~by:tasks.(slot);
    Tp_obs.Metrics.inc m_busy_us ~labels ~by:(us busy.(slot));
    Tp_obs.Metrics.inc m_idle_us ~labels
      ~by:(Stdlib.max 0 (us (wall -. busy.(slot))))
  done;
  for slot = 1 to n - 1 do
    Tp_obs.Metrics.inc m_steals ~by:tasks.(slot)
  done;
  Tp_obs.Metrics.inc m_runs

let default = Atomic.make 1
let set_default_jobs j = Atomic.set default (Stdlib.max 1 j)
let default_jobs () = Atomic.get default

let validate_jobs ~jobs ~inject =
  match jobs with
  | Some j when inject && j > 1 ->
      Error
        (Printf.sprintf
           "--inject is incompatible with --jobs %d: fault plans are \
            process-global (one armed crossing per process), so parallel \
            worker domains would race the injection point; drop --jobs or \
            pass --jobs 1"
           j)
  | Some j -> Ok (Stdlib.max 1 j)
  | None -> Ok (if inject then 1 else recommended_jobs ())

(* Each task allocates kernel object ids from its own region so that
   id sequences depend only on the trial index, not on worker
   assignment.  Applied at every jobs level: a [-j 1] run uses the same
   regions as [-j N], which is what makes id-derived values (Exec body
   keys, debug output) bit-identical across jobs levels.  2^20 ids per
   trial is orders of magnitude beyond what any experiment allocates;
   the caller's own id mark is restored afterwards. *)
let id_region_bits = 20

let with_task i f =
  let saved = Tp_kernel.Types.id_mark () in
  Fun.protect
    ~finally:(fun () -> Tp_kernel.Types.set_id_mark saved)
    (fun () ->
      Tp_kernel.Types.set_id_mark ((i + 1) lsl id_region_bits);
      Tp_obs.Trace.with_capture (fun () -> f i))

let run_ordered ?jobs n f ~commit =
  if n < 0 then invalid_arg "Tp_par.Pool.run_ordered: negative task count";
  let jobs =
    Stdlib.max 1
      (Stdlib.min n (match jobs with Some j -> j | None -> default_jobs ()))
  in
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  (* The one claim loop.  Every domain, the caller's included, takes
     the next index off the shared counter until the tasks run out or
     a stop is raised; [between] runs before each claim and ends the
     loop when it returns false.  [exec] runs a claimed task to
     completion whatever happens meanwhile, so every index below the
     counter always lands. *)
  let rec claim_loop ~between exec =
    if between () && not (Atomic.get stop) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        exec i;
        claim_loop ~between exec
      end
    end
  in
  (* [slots.(i)] is written once, under [mu], by the domain that ran
     task [i], and taken (cleared) by the caller when it commits [i]. *)
  let mu = Mutex.create () in
  let landed = Condition.create () in
  let slots = Array.make n None in
  let inst = Tp_obs.Metrics.enabled () in
  let t_start = if inst then Unix.gettimeofday () else 0.0 in
  (* Per-slot telemetry tallies, one writer each, read after join. *)
  let tasks = Array.make jobs 0 in
  let busy = Array.make jobs 0.0 in
  let exec slot i =
    let t0 = if inst then Unix.gettimeofday () else 0.0 in
    let r =
      match with_task i f with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    if Result.is_error r then Atomic.set stop true;
    if inst then begin
      tasks.(slot) <- tasks.(slot) + 1;
      busy.(slot) <- busy.(slot) +. (Unix.gettimeofday () -. t0)
    end;
    Mutex.protect mu (fun () ->
        slots.(i) <- Some r;
        Condition.broadcast landed)
  in
  let workers =
    Array.init (jobs - 1) (fun k ->
        Domain.spawn (fun () ->
            claim_loop ~between:(fun () -> true) (exec (k + 1));
            Tp_obs.Counter.export ()))
  in
  (* The caller commits in index order.  [drain ~block] hands every
     landed result from [!committed] on to [commit], replaying its
     trace first; with [~block] it also waits for tasks already claimed.
     The run is [over] once [commit] says stop or the next result in
     order is a failure — then the lowest-index one, since every index
     below it has committed. *)
  let committed = ref 0 in
  let over = ref false in
  let failure = ref None in
  let rec drain ~block =
    let k = !committed in
    if (not !over) && k < n then begin
      let claimed = k < Atomic.get next in
      let r =
        Mutex.protect mu (fun () ->
            if block && claimed then
              while Option.is_none slots.(k) do
                Condition.wait landed mu
              done;
            let r = slots.(k) in
            slots.(k) <- None;
            r)
      in
      match r with
      | None -> ()
      | Some (Error e) ->
          failure := Some e;
          over := true
      | Some (Ok (v, evs)) -> (
          Tp_obs.Trace.replay evs;
          committed := k + 1;
          match commit k v with
          | `Continue -> drain ~block
          | `Stop ->
              over := true;
              Atomic.set stop true)
    end
  in
  let commit_failure =
    match
      claim_loop
        ~between:(fun () ->
          drain ~block:false;
          not !over)
        (exec 0);
      drain ~block:true
    with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  (* Claims end with the run; tasks already claimed finish and are
     dropped uncommitted. *)
  Atomic.set stop true;
  let exports = Array.map Domain.join workers in
  (* Counter sums in fixed worker order: sums commute, so totals equal
     the sequential run's. *)
  Array.iter Tp_obs.Counter.absorb exports;
  if inst then
    record_slots ~wall:(Unix.gettimeofday () -. t_start) tasks busy;
  match (commit_failure, !failure) with
  | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None, None -> ()

let run ?jobs n f =
  if n < 0 then invalid_arg "Tp_par.Pool.run: negative task count";
  let out = Array.make n None in
  run_ordered ?jobs n f ~commit:(fun i v ->
      out.(i) <- Some v;
      `Continue);
  Array.map Option.get out

let map_list ?jobs xs f =
  let arr = Array.of_list xs in
  Array.to_list (run ?jobs (Array.length arr) (fun i -> f i arr.(i)))
