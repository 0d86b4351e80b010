type cost = {
  total : int;
  flush : int;
  pad_wait : int;
  kernel_switched : bool;
}

(* Switch-path performance counters (observability only: the switch
   logic never reads them, see Tp_obs.Ctl).  One instance per domain —
   Tp_par.Pool workers count into their own set (registered in their
   domain-local registry) and the pool sums the sets at join. *)
type stats = {
  st : Tp_obs.Counter.set;
  st_switches : Tp_obs.Counter.t;
  st_kernel_switches : Tp_obs.Counter.t;
  st_protected : Tp_obs.Counter.t;
  st_flush_cycles : Tp_obs.Counter.t;
  st_pad_wait_cycles : Tp_obs.Counter.t;
  st_pad_overruns : Tp_obs.Counter.t;
}

let stats_key : stats Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let st = Tp_obs.Counter.make_set "kernel.switch" in
      let stats =
        {
          st;
          st_switches = Tp_obs.Counter.counter st "switches";
          st_kernel_switches = Tp_obs.Counter.counter st "kernel_switches";
          st_protected = Tp_obs.Counter.counter st "protected";
          st_flush_cycles = Tp_obs.Counter.counter st "flush_cycles";
          st_pad_wait_cycles = Tp_obs.Counter.counter st "pad_wait_cycles";
          st_pad_overruns = Tp_obs.Counter.counter st "pad_overruns";
        }
      in
      Tp_obs.Counter.register st;
      stats)

let stats () = Domain.DLS.get stats_key
let counters () = (stats ()).st

(* x86 "manual" L1 flush (§4.3): the kernel loads one word per line of
   an L1-D-sized buffer, then follows a chain of jumps through an
   L1-I-sized buffer (each chained jump is BTB-mispredicted, which is
   why the paper's manual flush is so much more expensive than a real
   flush instruction would be).  The buffers are per-image, so their
   contents are the same deterministic lines every time. *)
let manual_l1_flush sys ~core ki =
  let p = System.platform sys in
  let line = p.Tp_hw.Platform.line in
  let m = System.machine sys in
  let asid = System.current_asid sys ~core in
  let global = System.kernel_mappings_global sys in
  let fb = (System.image_layout sys).Layout.flushbuf_off in
  let d_size = p.Tp_hw.Platform.l1d.Tp_hw.Cache.size in
  let i_size = p.Tp_hw.Platform.l1i.Tp_hw.Cache.size in
  let page_mask = Tp_hw.Defs.page_size - 1 in
  let start = System.now sys ~core in
  (* Image frames may be non-contiguous, but each page of the buffer is
     contiguous: [pa_delta] (physical minus image offset) is resolved
     once per page, not per line. *)
  let pa_delta = ref 0 in
  (* D side: one load per line. *)
  for l = 0 to (d_size / line) - 1 do
    let off = fb + (l * line) in
    if l = 0 || off land page_mask = 0 then
      pa_delta := System.image_pa ki ~off - off;
    ignore
      (Tp_hw.Machine.access_pt m ~core ~asid ~global ~llc_ways:max_int
         ~root_pa:(-1) ~leaf_pa:(-1) ~vaddr:(Layout.kernel_base_vaddr + off)
         ~paddr:(!pa_delta + off) ~kind:Tp_hw.Defs.Read)
  done;
  (* I side: chained jumps, one per line; also scrubs the BTB. *)
  for l = 0 to (i_size / line) - 1 do
    let off = fb + d_size + (l * line) in
    if l = 0 || off land page_mask = 0 then
      pa_delta := System.image_pa ki ~off - off;
    let va = Layout.kernel_base_vaddr + off in
    ignore
      (Tp_hw.Machine.jump m ~core ~asid ~vaddr:va ~paddr:(!pa_delta + off)
         ~target:(va + line))
  done;
  System.now sys ~core - start

(* Run a switch-flush plan in order.  Hardware steps are the
   machine's; the manual L1 flush is the kernel's, through the current
   kernel's flush buffers.  The manual flush displaces rather than
   invalidates: after the loop the L1 holds exactly the flush buffer —
   deterministic content, which is all the defence needs. *)
let rec flush sys ~core = function
  | [] -> 0
  | step :: plan ->
      let cost =
        match step with
        | Tp_hw.Flush.L1_manual ->
            manual_l1_flush sys ~core
              (System.per_core sys core).System.cur_kernel
        | step -> Tp_hw.Machine.flush_step (System.machine sys) ~core step
      in
      cost + flush sys ~core plan

(* Walks the region list directly: a [List.iter] closure over [sys]
   and [core] would be allocated on every switch. *)
let rec prefetch_regions sys ~core = function
  | [] -> ()
  | r :: rest ->
      ignore (System.touch_shared sys ~core r ~kind:Tp_hw.Defs.Read);
      prefetch_regions sys ~core rest

let prefetch_shared sys ~core =
  prefetch_regions sys ~core Layout.all_shared_regions

let switch sys ~core ~to_ =
  let cfg = System.cfg sys in
  let m = System.machine sys in
  let pc = System.per_core sys core in
  let from_kernel = pc.System.cur_kernel in
  let to_kernel =
    match to_.Types.t_kernel with Some k -> k | None -> from_kernel
  in
  let kernel_switched = to_kernel.Types.ki_id <> from_kernel.Types.ki_id in
  let domain_crossed =
    match pc.System.cur_thread with
    | Some cur -> cur.Types.t_domain <> to_.Types.t_domain
    | None -> true
  in
  (* Protection steps run on a kernel switch; with a single shared
     kernel (full-flush scenario) they run on domain crossings. *)
  let protect = kernel_switched || (domain_crossed && not cfg.Config.clone_kernel) in
  let t0 = System.now sys ~core in
  (* 1. acquire the kernel lock *)
  ignore (System.touch_shared sys ~core Layout.Big_lock ~kind:Tp_hw.Defs.Write);
  Tp_hw.Machine.add_cycles m ~core Tp_hw.Bounds.lock_cost;
  (* 2. process the timer tick normally *)
  ignore
    (System.touch_image sys ~core from_kernel ~region:System.Text
       ~off:Layout.handler_tick.Layout.t_off ~len:Layout.handler_tick.Layout.t_len
       ~kind:Tp_hw.Defs.Fetch);
  ignore (System.touch_shared sys ~core Layout.Cur_irq ~kind:Tp_hw.Defs.Write);
  ignore
    (System.touch_shared_range sys ~core Layout.Sched_queues ~off:(to_.Types.t_prio * 16)
       ~len:16 ~kind:Tp_hw.Defs.Read);
  ignore (System.touch_shared sys ~core Layout.Sched_bitmap ~kind:Tp_hw.Defs.Read);
  ignore (System.touch_shared sys ~core Layout.Cur_decision ~kind:Tp_hw.Defs.Write);
  if protect then begin
    (* 3. mask interrupts (and resolve the x86 mask race by acking
       anything that already fired, §4.3). *)
    ignore
      (System.touch_shared_range sys ~core Layout.Irq_tables ~off:0 ~len:256
         ~kind:Tp_hw.Defs.Write);
    if cfg.Config.partition_irqs then
      Irq.drop_masked_race (System.irq sys) ~core ~now:(System.now sys ~core)
  end;
  if kernel_switched then begin
    (* 4. switch the kernel stack (copy the live part across). *)
    let live = min 1024 (System.image_layout sys).Layout.stack_size in
    ignore
      (System.touch_image sys ~core from_kernel ~region:System.Stack ~off:0
         ~len:live ~kind:Tp_hw.Defs.Read);
    ignore
      (System.touch_image sys ~core to_kernel ~region:System.Stack ~off:0 ~len:live
         ~kind:Tp_hw.Defs.Write)
  end;
  (* 5. switch thread context (implicitly the kernel image: the
     page-directory pointer changes with the address space). *)
  (match pc.System.cur_thread with
  | Some cur ->
      if not cur.Types.t_is_idle then begin
        cur.Types.t_state <- Types.Ts_ready;
        ignore
          (System.touch_shared_range sys ~core Layout.Sched_queues
             ~off:(cur.Types.t_prio * 16) ~len:16 ~kind:Tp_hw.Defs.Write)
      end
  | None -> ());
  (* Touch the destination TCB (it holds the Kernel_Image reference the
     kernel compares against itself to detect the stack switch). *)
  (match to_.Types.t_frames with
  | f :: _ ->
      let pa = Phys.frame_addr f in
      let asid = System.current_asid sys ~core in
      let global = System.kernel_mappings_global sys in
      for l = 0 to 3 do
        let a = pa + (l * (System.platform sys).Tp_hw.Platform.line) in
        ignore
          (Tp_hw.Machine.access_pt m ~core ~asid ~global ~llc_ways:max_int
             ~root_pa:(-1) ~leaf_pa:(-1) ~vaddr:a ~paddr:a
             ~kind:Tp_hw.Defs.Read)
      done
  | [] -> ());
  ignore
    (System.touch_shared sys ~core Layout.Cur_pointers ~kind:Tp_hw.Defs.Write);
  from_kernel.Types.ki_running_on.(core) <- false;
  to_kernel.Types.ki_running_on.(core) <- true;
  pc.System.cur_thread <- Some to_;
  pc.System.cur_kernel <- to_kernel;
  to_.Types.t_state <- Types.Ts_running;
  (* 6. release the kernel lock *)
  ignore (System.touch_shared sys ~core Layout.Big_lock ~kind:Tp_hw.Defs.Write);
  Tp_hw.Machine.add_cycles m ~core Tp_hw.Bounds.lock_cost;
  (* 7. unmask the interrupts of the new kernel *)
  if protect then
    ignore
      (System.touch_shared_range sys ~core Layout.Irq_tables ~off:0 ~len:256
         ~kind:Tp_hw.Defs.Write);
  (* 8. flush on-core microarchitectural state *)
  let flush =
    if protect then flush sys ~core (System.flush_plan sys)
    else 0
  in
  (* 9. pre-fetch shared kernel data (Requirement 3) *)
  if protect && cfg.Config.prefetch_shared then prefetch_shared sys ~core;
  (* 10. poll the cycle counter until the configured latency has
     elapsed since the preemption interrupt; the pad is the *outgoing*
     kernel's attribute. *)
  let pad_wait =
    if protect && from_kernel.Types.ki_pad_cycles > 0 then begin
      let target = t0 + from_kernel.Types.ki_pad_cycles in
      let nw = System.now sys ~core in
      if nw < target then begin
        Tp_hw.Machine.add_cycles m ~core (target - nw);
        target - nw
      end
      else 0
    end
    else 0
  in
  (* 11. reprogram the timer interrupt *)
  ignore
    (System.touch_shared_range sys ~core Layout.Irq_tables ~off:0 ~len:64
       ~kind:Tp_hw.Defs.Write);
  Tp_hw.Machine.add_cycles m ~core Tp_hw.Bounds.timer_reprogram_cost;
  (* 12. restore the user stack pointer and return *)
  Tp_hw.Machine.add_cycles m ~core Tp_hw.Bounds.return_cost;
  let total = System.now sys ~core - t0 in
  if kernel_switched then Klog.switch ~core ~from_kernel ~to_kernel ~total;
  let padded = protect && from_kernel.Types.ki_pad_cycles > 0 in
  let s = stats () in
  Tp_obs.Counter.incr s.st_switches;
  if kernel_switched then Tp_obs.Counter.incr s.st_kernel_switches;
  if protect then Tp_obs.Counter.incr s.st_protected;
  Tp_obs.Counter.add s.st_flush_cycles flush;
  Tp_obs.Counter.add s.st_pad_wait_cycles pad_wait;
  if padded && pad_wait = 0 then Tp_obs.Counter.incr s.st_pad_overruns;
  Tp_obs.Padprof.record ~ki:from_kernel.Types.ki_id
    ~pad:from_kernel.Types.ki_pad_cycles ~padded ~total ~flush ~pad_wait;
  if Tp_obs.Trace.enabled () then
    Tp_obs.Trace.span ~core ~cat:"kernel" ~name:"domain_switch" ~ts:t0
      ~dur:total
      ~args:
        [
          ("from_ki", Tp_obs.Trace.Int from_kernel.Types.ki_id);
          ("to_ki", Tp_obs.Trace.Int to_kernel.Types.ki_id);
          ("flush", Tp_obs.Trace.Int flush);
          ("pad_wait", Tp_obs.Trace.Int pad_wait);
          ("kernel_switched", Tp_obs.Trace.Bool kernel_switched);
          ("protected", Tp_obs.Trace.Bool protect);
        ]
      ();
  { total; flush; pad_wait; kernel_switched }
