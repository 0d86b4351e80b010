type call =
  | Signal of Types.notification
  | Poll of Types.notification
  | Set_priority of Types.tcb * int
  | Yield
  | Set_timeout of { irq : int; after : int }

let trap_cost = 120

let current_kernel sys ~core = (System.per_core sys core).System.cur_kernel

let fetch_text sys ~core ki (r : Layout.text_range) =
  ignore
    (System.touch_image sys ~core ki ~region:System.Text ~off:r.Layout.t_off
       ~len:r.Layout.t_len ~kind:Tp_hw.Defs.Fetch)

let touch_data sys ~core ki ~off ~len ~kind =
  ignore (System.touch_image sys ~core ki ~region:System.Data ~off ~len ~kind)

let touch_stack sys ~core ki =
  (* Top few lines of the kernel stack. *)
  ignore
    (System.touch_image sys ~core ki ~region:System.Stack ~off:0 ~len:256
       ~kind:Tp_hw.Defs.Write)

let touch_object_frames sys ~core frames ~lines ~kind =
  let p = System.platform sys in
  let line = p.Tp_hw.Platform.line in
  let asid = System.current_asid sys ~core in
  let global = System.kernel_mappings_global sys in
  List.iteri
    (fun i f ->
      if i = 0 then
        for l = 0 to lines - 1 do
          let pa = Phys.frame_addr f + (l * line) in
          ignore
            (Tp_hw.Machine.access (System.machine sys) ~core ~asid ~global
               ~vaddr:pa ~paddr:pa ~kind ())
        done)
    frames

let entry sys ~core ki =
  Tp_hw.Machine.add_cycles (System.machine sys) ~core trap_cost;
  fetch_text sys ~core ki Layout.entry_stub;
  touch_stack sys ~core ki;
  ignore
    (System.touch_shared sys ~core Layout.Cur_pointers ~kind:Tp_hw.Defs.Read)

let wake sys ~core tcb =
  tcb.Types.t_state <- Types.Ts_ready;
  Sched.enqueue (System.sched sys) ~core:tcb.Types.t_core tcb;
  (* Enqueue touches the priority's ready-queue head and the bitmap in
     the shared region. *)
  ignore
    (System.touch_shared_range sys ~core Layout.Sched_queues ~off:(tcb.Types.t_prio * 16)
       ~len:16 ~kind:Tp_hw.Defs.Write);
  ignore (System.touch_shared sys ~core Layout.Sched_bitmap ~kind:Tp_hw.Defs.Write)

let execute sys ~core tcb call =
  let ki =
    match tcb.Types.t_kernel with
    | Some k -> k
    | None -> current_kernel sys ~core
  in
  entry sys ~core ki;
  (match call with
  | Signal nf ->
      fetch_text sys ~core ki Layout.handler_signal;
      touch_data sys ~core ki ~off:0x100 ~len:128 ~kind:Tp_hw.Defs.Write;
      touch_object_frames sys ~core nf.Types.nf_frames ~lines:2
        ~kind:Tp_hw.Defs.Write;
      nf.Types.nf_word <- nf.Types.nf_word lor 1;
      let waiters = nf.Types.nf_waiters in
      nf.Types.nf_waiters <- [];
      List.iter (wake sys ~core) waiters
  | Poll nf ->
      fetch_text sys ~core ki Layout.handler_poll;
      touch_object_frames sys ~core nf.Types.nf_frames ~lines:1
        ~kind:Tp_hw.Defs.Read;
      nf.Types.nf_word <- 0
  | Set_priority (target, prio) ->
      fetch_text sys ~core ki Layout.handler_set_priority;
      touch_data sys ~core ki ~off:0x300 ~len:192 ~kind:Tp_hw.Defs.Write;
      touch_object_frames sys ~core target.Types.t_frames ~lines:4
        ~kind:Tp_hw.Defs.Write;
      let was_queued =
        Sched.is_queued (System.sched sys) ~core:target.Types.t_core target
      in
      if was_queued then
        Sched.remove (System.sched sys) ~core:target.Types.t_core target;
      ignore
        (System.touch_shared_range sys ~core Layout.Sched_queues
           ~off:(target.Types.t_prio * 16) ~len:16 ~kind:Tp_hw.Defs.Write);
      target.Types.t_prio <- max 0 (min (Sched.n_priorities - 1) prio);
      if was_queued then begin
        Sched.enqueue (System.sched sys) ~core:target.Types.t_core target;
        ignore
          (System.touch_shared_range sys ~core Layout.Sched_queues
             ~off:(target.Types.t_prio * 16) ~len:16 ~kind:Tp_hw.Defs.Write)
      end;
      ignore
        (System.touch_shared sys ~core Layout.Sched_bitmap ~kind:Tp_hw.Defs.Write)
  | Yield ->
      fetch_text sys ~core ki Layout.handler_yield;
      ignore
        (System.touch_shared sys ~core Layout.Cur_decision ~kind:Tp_hw.Defs.Write)
  | Set_timeout { irq; after } ->
      fetch_text sys ~core ki Layout.handler_irq;
      ignore
        (System.touch_shared_range sys ~core Layout.Irq_tables ~off:(irq * 64) ~len:64
           ~kind:Tp_hw.Defs.Write);
      Irq.arm_timer (System.irq sys) ~core ~irq
        ~at:(System.now sys ~core + after));
  (* Return to user: back through the stub. *)
  fetch_text sys ~core ki Layout.entry_stub;
  Tp_hw.Machine.add_cycles (System.machine sys) ~core trap_cost

let handle_irq sys ~core ~irq =
  let ki = current_kernel sys ~core in
  Tp_hw.Machine.add_cycles (System.machine sys) ~core trap_cost;
  fetch_text sys ~core ki Layout.handler_irq;
  touch_stack sys ~core ki;
  ignore
    (System.touch_shared sys ~core Layout.Cur_irq ~kind:Tp_hw.Defs.Write);
  ignore
    (System.touch_shared_range sys ~core Layout.Irq_tables ~off:(irq * 64) ~len:64
       ~kind:Tp_hw.Defs.Read);
  (* Acknowledge at the interrupt controller (EOI round-trip), signal
     the user-level driver's notification, and return — several
     microseconds of work on real hardware, and the magnitude of the
     cycle-counter jump the Figure 6 spy detects. *)
  Tp_hw.Machine.add_cycles (System.machine sys) ~core (trap_cost + 8_000)
