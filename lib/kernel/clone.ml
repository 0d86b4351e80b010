(* Domain-local so parallel workers' clones never race; each task
   queries the cost of its own last clone. *)
let last_clone_cost : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* Clone/destroy performance counters (observability only).  Per
   domain, like the switch-path set: Tp_par.Pool sums them at join. *)
type stats = {
  st : Tp_obs.Counter.set;
  st_clones : Tp_obs.Counter.t;
  st_clone_cycles : Tp_obs.Counter.t;
  st_destroys : Tp_obs.Counter.t;
  st_destroy_ipis : Tp_obs.Counter.t;
}

let stats_key : stats Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let st = Tp_obs.Counter.make_set "kernel.clone" in
      let stats =
        {
          st;
          st_clones = Tp_obs.Counter.counter st "clones";
          st_clone_cycles = Tp_obs.Counter.counter st "clone_cycles";
          st_destroys = Tp_obs.Counter.counter st "destroys";
          st_destroy_ipis = Tp_obs.Counter.counter st "destroy_ipis";
        }
      in
      Tp_obs.Counter.register st;
      stats)

let stats () = Domain.DLS.get stats_key
let counters () = (stats ()).st

let master_cap sys =
  Capability.mk_root ~clone_right:true
    (Types.Obj_kernel_image (System.initial_kernel sys))

let the_image cap =
  Capability.ensure_valid cap;
  match cap.Types.target with
  | Types.Obj_kernel_image ki -> ki
  | _ -> raise (Types.Kernel_error Types.Wrong_object_type)

let the_kmem cap =
  Capability.ensure_valid cap;
  match cap.Types.target with
  | Types.Obj_kernel_memory km -> km
  | _ -> raise (Types.Kernel_error Types.Wrong_object_type)

(* Copy [len] bytes at image offset [off] from one image's frames to
   another's, as simulated memory traffic through the kernel's physical
   window (vaddr = paddr, global mapping where the layout allows). *)
let copy_region sys ~core ~src_pa_of ~dst_pa_of ~off ~len =
  let m = System.machine sys in
  let p = System.platform sys in
  let line = p.Tp_hw.Platform.line in
  let asid = System.current_asid sys ~core in
  let global = System.kernel_mappings_global sys in
  let n_lines = (len + line - 1) / line in
  for i = 0 to n_lines - 1 do
    let o = off + (i * line) in
    let src = src_pa_of o and dst = dst_pa_of o in
    ignore
      (Tp_hw.Machine.access m ~core ~asid ~global ~vaddr:src ~paddr:src
         ~kind:Tp_hw.Defs.Read ());
    ignore
      (Tp_hw.Machine.access m ~core ~asid ~global ~vaddr:dst ~paddr:dst
         ~kind:Tp_hw.Defs.Write ())
  done

let () =
  List.iter Tp_fault.Fault.register
    [
      "clone.validate";
      "clone.copy";
      "clone.idle";
      "clone.commit";
      "destroy.irq";
      "destroy.suspend";
      "destroy.ipi";
      "destroy.asid";
      "destroy.commit";
    ]

let clone sys ~core ~src ~kmem =
  let src_ki = the_image src in
  if not src.Types.clone_right then raise (Types.Kernel_error Types.No_clone_right);
  if src_ki.Types.ki_state <> Types.Ki_active then
    raise (Types.Kernel_error Types.Zombie_object);
  let km = the_kmem kmem in
  if km.Types.km_image <> None then raise (Types.Kernel_error Types.Wrong_object_type);
  let p = System.platform sys in
  let lay = System.image_layout sys in
  let needed = Layout.image_frames p in
  if List.length km.Types.km_frames < needed then
    raise (Types.Kernel_error Types.Insufficient_untyped);
  Tp_fault.Fault.hit "clone.validate";
  let start = System.now sys ~core in
  (* Everything from the ASID allocation on is transactional: a raise
     anywhere below (a real error or an injected fault) releases the
     ASID and unwinds every published side effect, so a failed clone
     leaves no residual kernel, CDT edge or Kernel_Memory binding. *)
  Txn.run @@ fun txn ->
  (* ASID allocation scans the shared first-level ASID table — the
     lifted clone trace (Tp_analysis.Kcert) models this same read. *)
  ignore (System.touch_shared sys ~core Layout.Asid_table ~kind:Tp_hw.Defs.Read);
  let asid = System.alloc_asid sys in
  Txn.defer txn (fun () -> System.free_asid sys asid);
  (* The image occupies the Kernel_Memory frames in offset order.  The
     frames come from the caller's (coloured) pool, so a cloned kernel
     is exactly as coloured as the domain that created it. *)
  let frame_arr = Array.of_list km.Types.km_frames in
  let ki =
    {
      Types.ki_id = Types.fresh_id ();
      ki_state = Types.Ki_active;
      ki_asid = asid;
      ki_is_initial = false;
      ki_frames = frame_arr;
      ki_idle = None;
      ki_running_on = Array.make (Tp_hw.Machine.n_cores (System.machine sys)) false;
      ki_irqs = [];
      ki_pad_cycles = (System.cfg sys).Config.pad_cycles;
    }
  in
  (* A half-built image must never look active to a concurrent
     observer walking the registry. *)
  Txn.defer txn (fun () -> ki.Types.ki_state <- Types.Ki_destroyed);
  (* Kernel_Clone copies code, read-only data and stack; the replicated
     globals are initialised from the source's values (a copy too). *)
  let copy ~off ~len =
    Tp_fault.Fault.hit "clone.copy";
    copy_region sys ~core
      ~src_pa_of:(fun o -> System.image_pa src_ki ~off:o)
      ~dst_pa_of:(fun o -> System.image_pa ki ~off:o)
      ~off ~len
  in
  copy ~off:lay.Layout.text_off ~len:lay.Layout.text_size;
  copy ~off:lay.Layout.stack_off ~len:lay.Layout.stack_size;
  copy ~off:lay.Layout.data_off ~len:lay.Layout.data_size;
  (* Clone handler's own text execution. *)
  ignore
    (System.touch_image sys ~core src_ki ~region:System.Text
       ~off:Layout.handler_clone.Layout.t_off ~len:Layout.handler_clone.Layout.t_len
       ~kind:Tp_hw.Defs.Fetch);
  Tp_fault.Fault.hit "clone.idle";
  (* New idle thread and kernel address space root. *)
  ki.Types.ki_idle <-
    Some
      {
        Types.t_id = Types.fresh_id ();
        t_prio = 0;
        t_state = Types.Ts_ready;
        t_vspace = None;
        t_kernel = Some ki;
        t_core = core;
      t_sc = None;
        t_domain = -1;
        t_frames = [];
        t_is_idle = true;
      };
  Tp_fault.Fault.hit "clone.commit";
  km.Types.km_image <- Some ki;
  Txn.defer txn (fun () -> km.Types.km_image <- None);
  System.register_kernel sys ki;
  Txn.defer txn (fun () -> System.unregister_kernel sys ki);
  let cost = System.now sys ~core - start in
  Domain.DLS.get last_clone_cost := cost;
  Klog.clone ki ~cost_cycles:cost;
  let s = stats () in
  Tp_obs.Counter.incr s.st_clones;
  Tp_obs.Counter.add s.st_clone_cycles cost;
  if Tp_obs.Trace.enabled () then
    Tp_obs.Trace.span ~core ~cat:"kernel" ~name:"kernel_clone" ~ts:start
      ~dur:cost
      ~args:[ ("ki", Tp_obs.Trace.Int ki.Types.ki_id) ]
      ();
  (* CDT: the new image hangs off the source image capability. *)
  let cap =
    {
      Types.cap_id = Types.fresh_id ();
      target = Types.Obj_kernel_image ki;
      rights = Types.full_rights;
      clone_right = src.Types.clone_right;
      parent = Some src;
      children = [];
      valid = true;
    }
  in
  src.Types.children <- cap :: src.Types.children;
  cap

(* Send + remote acknowledge, cf. TLB shoot-down; from the shared
   lifecycle cost table so the analytic destroy envelope cannot drift. *)
let ipi_cost = Tp_hw.Bounds.ipi_cost

(* Steps 2..5 of destruction, shared between the normal path and the
   roll-forward recovery path.  Every step is idempotent, so a destroy
   interrupted anywhere can simply be completed: destruction rolls
   forward (the zombie finishes dying), it never rolls back — the
   capability is already gone and §4.4 requires the teardown to reach
   a quiescent state. *)
let teardown sys ~core ki ~charge =
  let m = System.machine sys in
  (* 2. Release IRQ associations first: no interrupt may be delivered
     to (or partitioned for) a dying kernel, and the IRQ tables must
     never point at a non-active image. *)
  Tp_fault.Fault.hit "destroy.irq";
  List.iter (fun irq -> Irq.clear_int (System.irq sys) ~irq) ki.Types.ki_irqs;
  ki.Types.ki_irqs <- [];
  (* 3. Suspend all threads bound to the zombie. *)
  Tp_fault.Fault.hit "destroy.suspend";
  List.iter
    (fun tcb ->
      match tcb.Types.t_kernel with
      | Some k when k.Types.ki_id = ki.Types.ki_id ->
          tcb.Types.t_state <- Types.Ts_suspended;
          Sched.remove (System.sched sys) ~core:tcb.Types.t_core tcb
      | Some _ | None -> ())
    (System.all_tcbs sys);
  (* 4. system_stall + TLB_invalidate IPIs to cores running the zombie;
     they fall back to the initial kernel's idle thread. *)
  Tp_fault.Fault.hit "destroy.ipi";
  Array.iteri
    (fun c running ->
      if running then begin
        Tp_obs.Counter.incr (stats ()).st_destroy_ipis;
        if charge then begin
          ignore
            (System.touch_shared sys ~core Layout.Ipi_barrier ~kind:Tp_hw.Defs.Write);
          Tp_hw.Machine.add_cycles m ~core ipi_cost;
          Tp_hw.Machine.add_cycles m ~core:c ipi_cost
        end;
        ignore (Tp_hw.Machine.flush_step m ~core:c Tp_hw.Flush.Tlb);
        let pc = System.per_core sys c in
        pc.System.cur_kernel <- System.initial_kernel sys;
        pc.System.cur_thread <- (System.initial_kernel sys).Types.ki_idle;
        ki.Types.ki_running_on.(c) <- false
      end)
    ki.Types.ki_running_on;
  (* 5. Release the ASID and complete the cleanup.  [ki_asid] is set
     to -1 as the "already released" marker, making the step (and the
     whole teardown) safely re-runnable. *)
  Tp_fault.Fault.hit "destroy.asid";
  if ki.Types.ki_asid > 0 then begin
    (* Releasing the ASID clears the shared first-level table slot —
       the lifted destroy trace (Tp_analysis.Kcert) models this same
       write. *)
    if charge then
      ignore
        (System.touch_shared sys ~core Layout.Asid_table ~kind:Tp_hw.Defs.Write);
    let a = ki.Types.ki_asid in
    ki.Types.ki_asid <- -1;
    System.free_asid sys a
  end;
  Tp_fault.Fault.hit "destroy.commit";
  ki.Types.ki_state <- Types.Ki_destroyed;
  Klog.destroy ki;
  System.unregister_kernel sys ki

let destroy sys ~core cap =
  let ki = the_image cap in
  if ki.Types.ki_is_initial then
    raise (Types.Kernel_error Types.Invalid_capability);
  if ki.Types.ki_state = Types.Ki_destroyed then
    raise (Types.Kernel_error Types.Zombie_object);
  let m = System.machine sys in
  let start = System.now sys ~core in
  let destroyed_ki = ki.Types.ki_id in
  (* Destroy handler's own text execution (on the kernel performing the
     destruction, not the dying image). *)
  ignore
    (System.touch_image sys ~core
       (System.per_core sys core).System.cur_kernel ~region:System.Text
       ~off:Layout.handler_destroy.Layout.t_off
       ~len:Layout.handler_destroy.Layout.t_len ~kind:Tp_hw.Defs.Fetch);
  (* 1. Invalidate the capability: the kernel becomes a zombie. *)
  Capability.invalidate cap;
  ki.Types.ki_state <- Types.Ki_zombie;
  (try teardown sys ~core ki ~charge:true
   with e ->
     (* Crash consistency by roll-forward: complete the remaining
        teardown steps (uncharged — the failing path's timing is no
        longer meaningful), then propagate the original failure. *)
     (try teardown sys ~core ki ~charge:false
      with _ -> () (* injected one-shot faults cannot re-fire *));
     Klog.fault_recovered ~where:"Clone.destroy" ~exn_:e;
     raise e);
  (* Fixed bookkeeping cost of the destruction path itself. *)
  ignore
    (System.touch_shared sys ~core Layout.Cur_pointers ~kind:Tp_hw.Defs.Write);
  Tp_hw.Machine.add_cycles m ~core Tp_hw.Bounds.destroy_bookkeeping_cost;
  Tp_obs.Counter.incr (stats ()).st_destroys;
  if Tp_obs.Trace.enabled () then
    Tp_obs.Trace.span ~core ~cat:"kernel" ~name:"kernel_destroy" ~ts:start
      ~dur:(System.now sys ~core - start)
      ~args:[ ("ki", Tp_obs.Trace.Int destroyed_ki) ]
      ()

let set_int sys ~image ~irq =
  let ki = the_image image in
  if ki.Types.ki_state <> Types.Ki_active then
    raise (Types.Kernel_error Types.Zombie_object);
  Irq.set_int (System.irq sys) ~irq ki;
  Klog.set_int ki ~irq;
  if not (List.mem irq ki.Types.ki_irqs) then
    ki.Types.ki_irqs <- irq :: ki.Types.ki_irqs

let set_pad _sys ~image ~cycles =
  let ki = the_image image in
  ki.Types.ki_pad_cycles <- cycles

let clone_cost_cycles _sys = !(Domain.DLS.get last_clone_cost)
