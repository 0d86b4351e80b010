open Tp_kernel

type budget = { max_cycles : int option; max_wall_s : float option }

let no_budget = { max_cycles = None; max_wall_s = None }

type spec = {
  samples : int;
  symbols : int;
  slice_cycles : int;
  noise_sigma : float;
  warmup : int;
  checkpoint_slices : int;
  budget : budget;
  replay : bool;
  replay_seed : Tp_hw.Replay.t array option;
}

let default_spec p =
  {
    samples = 1500;
    symbols = 4;
    slice_cycles = Tp_hw.Platform.us_to_cycles p 1000.0 (* 1 ms, as in §5.3.1 *);
    noise_sigma = 8.0;
    warmup = 4;
    checkpoint_slices = 64;
    budget = no_budget;
    replay = true;
    replay_seed = None;
  }

type result = {
  data : Tp_channel.Mi.samples;
  degraded : bool;
  degraded_reason : string option;
  recovered_faults : int;
  checkpoints : int;
  switch_counters : Tp_obs.Counter.snapshot;
  cert : Tp_analysis.Certify.cert;
}

type placement = Same_core | Concurrent | Coscheduled

(* Re-admit a measurement thread that an aborted slice left neither
   running nor queued, so the loop can keep collecting. *)
let recover_thread sys tcb =
  if
    (not tcb.Types.t_is_idle)
    && tcb.Types.t_state <> Types.Ts_suspended
    && not (Sched.is_queued (System.sched sys) ~core:tcb.Types.t_core tcb)
  then begin
    tcb.Types.t_state <- Types.Ts_ready;
    Sched.enqueue (System.sched sys) ~core:tcb.Types.t_core tcb
  end

(* Injection point crossed once per checkpointed chunk: arming it lets
   the fail-at-step-N machinery strike the collection loop itself (not
   just kernel setup paths) and exercise the recovery/degradation
   contract below. *)
let point_chunk = "harness.chunk"
let () = Tp_fault.Fault.register point_chunk

(* The checkpointed collection loop.  [run_chunk n] advances the
   simulation by [n] scheduling units (slices or rounds); [collected ()]
   reports how many samples have been recorded so far.  Returns the
   degradation reason (if any), the number of kernel faults recovered,
   the number of checkpoints taken and the switch-counter delta.

   Each chunk is a checkpoint: the sample lists only ever grow, so a
   kernel fault mid-chunk costs at most the current chunk's partial
   slices — everything recorded at the last checkpoint is kept and the
   loop resumes, instead of the whole measurement aborting. *)
let collect sys spec ~threads ~total ~collected ~run_chunk =
  let chunk_size = Stdlib.max 1 spec.checkpoint_slices in
  (* Wall budget means wall time: Sys.time is CPU time, which both
     undercounts when the process is descheduled and — summed across
     domains — overcounts under -j N.  Unix.gettimeofday is the
     monotonic-enough wall clock this toolchain has. *)
  let wall0 = Unix.gettimeofday () in
  let cycles0 = System.now sys ~core:0 in
  (* Switch-path counters over this collection, for the result's
     checkpoint metadata (all zeros when counters are off). *)
  let sw0 = Tp_obs.Counter.snapshot (Domain_switch.counters ()) in
  let stop = ref None in
  let recovered = ref 0 in
  let checkpoints = ref 0 in
  let fruitless = ref 0 in
  let done_ = ref 0 in
  while !done_ < total && !stop = None && collected () < spec.samples do
    let n = Stdlib.min chunk_size (total - !done_) in
    let before = collected () in
    (match
       Tp_fault.Fault.hit point_chunk;
       run_chunk n
     with
    | () -> fruitless := 0
    | exception (Types.Kernel_error _ as e) ->
        (* Partial-result recovery: keep everything collected so far,
           re-admit the measurement threads, and carry on.  Repeated
           faults without progress mean the system cannot make headway
           — degrade instead of spinning. *)
        incr recovered;
        Klog.fault_recovered ~where:"Harness.collect" ~exn_:e;
        List.iter (recover_thread sys) threads;
        if collected () = before then begin
          incr fruitless;
          if !fruitless >= 3 then stop := Some "repeated kernel faults"
        end
        else fruitless := 0);
    done_ := !done_ + n;
    incr checkpoints;
    Klog.harness_checkpoint
      ~now:(System.now sys ~core:0)
      ~chunk:!checkpoints ~collected:(collected ()) ();
    (match spec.budget.max_cycles with
    | Some c when System.now sys ~core:0 - cycles0 >= c ->
        stop := Some "cycle budget exhausted"
    | Some _ | None -> ());
    match spec.budget.max_wall_s with
    | Some s when Unix.gettimeofday () -. wall0 >= s ->
        stop := Some "wall-clock budget exhausted"
    | Some _ | None -> ()
  done;
  let switch_counters =
    Tp_obs.Counter.delta ~before:sw0
      ~after:(Tp_obs.Counter.snapshot (Domain_switch.counters ()))
  in
  (!stop, !recovered, !checkpoints, switch_counters)

(* Per-symbol record-once / replay-many state for the sender side of a
   trial loop.  The first slice sending symbol [s] runs live with a
   recorder attached; every later slice for [s] replays the recorded
   stream ({!Uctx.replay}), bit-identical to live execution by
   construction.  Senders whose op sequence the stream cannot capture
   (clock reads, syscalls) poison their recording and permanently fall
   back to live execution — the kernel and flush channels take this
   path on their first slice and are never replayed. *)
type sym_state =
  | Fresh
  | Pending of Tp_hw.Replay.t
  | Recorded of Tp_hw.Replay.t
  | Live

let replayed_sender spec ~sender =
  if not spec.replay then sender
  else begin
    let streams =
      match spec.replay_seed with
      | Some a when Array.length a = spec.symbols ->
          Array.map
            (fun r -> if Tp_hw.Replay.complete r then Recorded r else Live)
            a
      | Some _ | None -> Array.make spec.symbols Fresh
    in
    fun ctx s ->
      (* Settle the previous slice's recording: only now, at the next
         scheduling of the sender, is it known whether that slice ran
         to quiescence (complete) or was cut short or poisoned. *)
      Array.iteri
        (fun i st ->
          match st with
          | Pending r ->
              streams.(i) <-
                (if Tp_hw.Replay.complete r then Recorded r else Live)
          | Fresh | Recorded _ | Live -> ())
        streams;
      match streams.(s) with
      | Recorded r ->
          (* A transient refusal (e.g. a timer due within this slice)
             runs live this once; the stream stays good. *)
          if not (Uctx.replay ctx r) then sender ctx s
      | Live -> sender ctx s
      | Fresh ->
          let r = Tp_hw.Replay.create () in
          streams.(s) <- Pending r;
          Uctx.set_recorder ctx (Some r);
          sender ctx s
      | Pending _ -> sender ctx s (* unreachable: settled above *)
  end

let record_streams b ~sender ~symbols ~slice_cycles =
  let sys = b.Boot.sys in
  let streams = Array.init symbols (fun _ -> Tp_hw.Replay.create ()) in
  let idx = ref 0 in
  let body ctx =
    if !idx < symbols then begin
      let s = !idx in
      incr idx;
      Uctx.set_recorder ctx (Some streams.(s));
      sender ctx s
    end
  in
  ignore (Boot.spawn b b.Boot.domains.(0) body);
  (* A couple of slack slices in case setup left another thread
     runnable; once every symbol is recorded the body is a no-op. *)
  Exec.run_slices sys ~core:0 ~slice_cycles ~slices:(symbols + 2) ();
  streams

let run_pair_result ?(placement = Same_core) b ~sender ~receiver spec ~rng =
  let sys = b.Boot.sys in
  let sym_rng = Tp_util.Rng.split rng in
  let noise_rng = Tp_util.Rng.split rng in
  let cur_sym = ref (-1) in
  let iteration = ref 0 in
  let inputs = ref [] and outputs = ref [] in
  let recorded = ref 0 in
  let send = replayed_sender spec ~sender in
  let sender_body ctx =
    let s = Tp_util.Rng.int sym_rng spec.symbols in
    cur_sym := s;
    send ctx s
  in
  let receiver_body ctx =
    (match receiver ctx with
    | Some y when !cur_sym >= 0 && !iteration >= spec.warmup ->
        inputs := !cur_sym :: !inputs;
        outputs :=
          (y +. Tp_util.Rng.gaussian noise_rng ~mu:0.0 ~sigma:spec.noise_sigma)
          :: !outputs;
        incr recorded
    | Some _ | None -> ());
    incr iteration
  in
  let rcore = if placement = Same_core then 0 else 1 in
  let st = Boot.spawn b b.Boot.domains.(0) sender_body in
  let rt = Boot.spawn b b.Boot.domains.(1) ~core:rcore receiver_body in
  let slice_cycles = spec.slice_cycles and cores = [ 0; 1 ] in
  (* One unit is a slice on the shared core, or a round across both.
     A sample takes two slices (sender then receiver) on one core, one
     concurrent round, or two co-scheduled rounds (the domain rotation);
     the +2 is slack for warmup and the first scheduling round. *)
  let units_per_sample, run_chunk =
    match placement with
    | Same_core ->
        (2, fun n -> Exec.run_slices sys ~core:0 ~slice_cycles ~slices:n ())
    | Concurrent ->
        (1, fun n -> Exec.run_concurrent sys ~cores ~slice_cycles ~rounds:n ())
    | Coscheduled ->
        (2, fun n -> Exec.run_coscheduled sys ~cores ~slice_cycles ~rounds:n ())
  in
  let stop, recovered, checkpoints, switch_counters =
    collect sys spec ~threads:[ st; rt ]
      ~total:(units_per_sample * (spec.samples + spec.warmup + 2))
      ~collected:(fun () -> !recorded)
      ~run_chunk
  in
  let n = Stdlib.min spec.samples !recorded in
  let keep l = Array.sub (Array.of_list (List.rev l)) 0 n in
  let reason =
    match stop with
    | Some _ -> stop
    | None -> if n < spec.samples then Some "sample shortfall" else None
  in
  Option.iter (fun r -> Klog.harness_degraded ~reason:r ~collected:n ()) reason;
  {
    data = { Tp_channel.Mi.input = keep !inputs; output = keep !outputs };
    degraded = reason <> None;
    degraded_reason = reason;
    recovered_faults = recovered;
    checkpoints;
    switch_counters;
    cert = Tp_analysis.Certify.certify_static b;
  }

(* Collection metadata as one JSON object: the degradation contract
   in a machine-readable shape. *)
let status_json r =
  Printf.sprintf
    "{\"degraded\":%b,\"degraded_reason\":%s,\"recovered_faults\":%d,\"checkpoints\":%d,\"samples\":%d}"
    r.degraded
    (match r.degraded_reason with
    | None -> "null"
    | Some s -> "\"" ^ Tp_util.Json.escape s ^ "\"")
    r.recovered_faults r.checkpoints
    (Array.length r.data.Tp_channel.Mi.input)
