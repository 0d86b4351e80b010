type body = Uctx.t -> unit

(* Bodies are user-level code, not kernel state, so they live beside
   the TCBs rather than inside them.  The map is domain-local: a
   Tp_par.Pool task must create (boot + spawn) every simulator it
   drives, so bodies registered by one worker are never looked up from
   another, and no lock is needed on this per-slice path. *)
let bodies_key : (int, body) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let bodies () = Domain.DLS.get bodies_key

let set_body tcb body = Hashtbl.replace (bodies ()) tcb.Types.t_id body

let make_runnable sys tcb =
  tcb.Types.t_state <- Types.Ts_ready;
  Sched.enqueue (System.sched sys) ~core:tcb.Types.t_core tcb

let bind_sched_context tcb sc = tcb.Types.t_sc <- Some sc

let default_slice_us = 10_000.0 (* 10 ms *)

(* MCS budget accounting (scheduling contexts, Lyons et al. 2018):
   a depleted thread stays off the ready queue until its replenishment
   time; the driver re-admits it at slice boundaries. *)
let replenish_ready sys ~core =
  let now = System.now sys ~core in
  List.iter
    (fun tcb ->
      match tcb.Types.t_sc with
      | Some sc
        when tcb.Types.t_core = core
             && tcb.Types.t_state = Types.Ts_ready
             && sc.Types.sc_remaining <= 0
             && sc.Types.sc_replenish_at <= now
             && not (Sched.is_queued (System.sched sys) ~core tcb) ->
          sc.Types.sc_remaining <- sc.Types.sc_budget;
          Sched.enqueue (System.sched sys) ~core tcb
      | Some _ | None -> ())
    (System.all_tcbs sys)

(* Effective slice for a thread: its scheduling context may grant less
   than the full tick. *)
let effective_slice tcb ~slice_cycles =
  match tcb.Types.t_sc with
  | Some sc -> Stdlib.max 1 (Stdlib.min slice_cycles sc.Types.sc_remaining)
  | None -> slice_cycles

(* Charge the thread's scheduling context for its runtime; returns
   whether the thread may be requeued now. *)
let charge_budget tcb ~ran ~now =
  match tcb.Types.t_sc with
  | None -> true
  | Some sc ->
      sc.Types.sc_remaining <- sc.Types.sc_remaining - ran;
      if sc.Types.sc_remaining <= 0 then begin
        sc.Types.sc_replenish_at <- now - ran + sc.Types.sc_period;
        false
      end
      else true

(* The current kernel's idle thread: what a core runs with nothing
   ready. *)
let idle_thread sys ~core =
  match (System.per_core sys core).System.cur_kernel.Types.ki_idle with
  | Some idle -> idle
  | None -> Option.get (System.initial_kernel sys).Types.ki_idle

let run_thread sys ~core ~slice_cycles tcb =
  ignore (Domain_switch.switch sys ~core ~to_:tcb);
  let run_start = System.now sys ~core in
  let ctx = Uctx.make sys ~core tcb ~slice_end:(run_start + slice_cycles) in
  (try
     (match Hashtbl.find_opt (bodies ()) tcb.Types.t_id with
     | Some body -> body ctx
     | None -> ());
     (* Early return: idle out the remainder of the slice. *)
     Uctx.idle_rest ctx
   with Uctx.Preempted -> ());
  System.now sys ~core - run_start

(* The preemption tick has arrived: a user thread is ready again, and
   back on its core's queue unless [may_requeue] is false. *)
let requeue sys ~core tcb ~may_requeue =
  if (not tcb.Types.t_is_idle) && tcb.Types.t_state = Types.Ts_running then begin
    tcb.Types.t_state <- Types.Ts_ready;
    if may_requeue then Sched.enqueue (System.sched sys) ~core tcb
  end

let one_slice sys ~core ~slice_cycles =
  replenish_ready sys ~core;
  let next =
    match Sched.dequeue_highest (System.sched sys) ~core with
    | Some tcb -> tcb
    | None -> idle_thread sys ~core
  in
  let ran =
    run_thread sys ~core ~slice_cycles:(effective_slice next ~slice_cycles) next
  in
  (* Charge the budget; a depleted scheduling context keeps the thread
     off the queue until its replenishment. *)
  requeue sys ~core next
    ~may_requeue:(charge_budget next ~ran ~now:(System.now sys ~core))

let resolve_slice sys slice_cycles =
  match slice_cycles with
  | Some s -> s
  | None -> Tp_hw.Platform.us_to_cycles (System.platform sys) default_slice_us

let run sys ~core ?slice_cycles ~until () =
  let slice_cycles = resolve_slice sys slice_cycles in
  while System.now sys ~core < until do
    one_slice sys ~core ~slice_cycles
  done

let run_slices sys ~core ?slice_cycles ~slices () =
  let slice_cycles = resolve_slice sys slice_cycles in
  for _ = 1 to slices do
    one_slice sys ~core ~slice_cycles
  done

let run_concurrent sys ~cores ?slice_cycles ~rounds () =
  let slice_cycles = resolve_slice sys slice_cycles in
  for _ = 1 to rounds do
    List.iter (fun core -> one_slice sys ~core ~slice_cycles) cores
  done

(* Run one slice of a specific thread (or the current kernel's idle
   thread when [thread] is [None]) on a core. *)
let slice_of_thread sys ~core ~slice_cycles thread =
  let next = match thread with Some tcb -> tcb | None -> idle_thread sys ~core in
  ignore (run_thread sys ~core ~slice_cycles next);
  requeue sys ~core next ~may_requeue:true

let run_coscheduled sys ~cores ?slice_cycles ~rounds () =
  let slice_cycles = resolve_slice sys slice_cycles in
  let sched = System.sched sys in
  let rotation = ref [] in
  for _ = 1 to rounds do
    (* Refresh the domain rotation from whatever is currently ready. *)
    (if !rotation = [] then
       let doms =
         List.sort_uniq compare
           (List.concat_map (fun core -> Sched.domains_present sched ~core) cores)
       in
       rotation := doms);
    match !rotation with
    | [] ->
        (* Nothing ready anywhere: idle a slice on every core. *)
        List.iter
          (fun core -> slice_of_thread sys ~core ~slice_cycles None)
          cores
    | dom :: rest ->
        rotation := rest;
        List.iter
          (fun core ->
            let th = Sched.dequeue_domain sched ~core ~domain:dom in
            slice_of_thread sys ~core ~slice_cycles th)
          cores
  done
