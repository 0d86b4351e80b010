exception Preempted

type t = {
  sys : System.t;
  core : int;
  tcb : Types.tcb;
  slice_end : int;
  mutable recorder : Tp_hw.Replay.t option;
}

let make sys ~core tcb ~slice_end = { sys; core; tcb; slice_end; recorder = None }

(* Internal clock read — used by the slice machinery itself, which is
   part of what a replay reproduces, so it must not poison. *)
let now_ t = System.now t.sys ~core:t.core

(* A recorded stream replays only the body's Machine-level operations.
   Any behaviour that could make the body's op sequence depend on
   something the stream does not capture — the clock, kernel entry,
   direct system access — poisons the recording: the stream stays
   unreplayable and the trial loop falls back to live execution. *)
let taint t =
  match t.recorder with
  | Some r -> Tp_hw.Replay.poison r
  | None -> ()

let set_recorder t r = t.recorder <- r

let sys t = taint t; t.sys
let core t = t.core
let tcb t = taint t; t.tcb
let now t = taint t; now_ t

(* Deliver fired, unmasked timer IRQs; then enforce the slice budget. *)
let post t =
  let cfg = System.cfg t.sys in
  let pc = System.per_core t.sys t.core in
  (match
     Irq.pending (System.irq t.sys) ~core:t.core ~now:(now_ t)
       ~partitioned:cfg.Config.partition_irqs ~current:pc.System.cur_kernel
   with
  | [] -> ()
  | fired -> List.iter (fun irq -> Syscalls.handle_irq t.sys ~core:t.core ~irq) fired);
  if now_ t >= t.slice_end then raise Preempted

let vspace t =
  match t.tcb.Types.t_vspace with
  | Some vs -> vs
  | None -> raise (Types.Kernel_error Types.Invalid_capability)

(* A data or instruction access: the recording, when there is one,
   shares the access's own translation and page-table lines. *)
let access t ~kind vaddr =
  ignore
    (System.user_access ?recorder:t.recorder t.sys ~core:t.core t.tcb ~vaddr
       ~kind);
  post t

let read t vaddr = access t ~kind:Tp_hw.Defs.Read vaddr
let write t vaddr = access t ~kind:Tp_hw.Defs.Write vaddr
let fetch t vaddr = access t ~kind:Tp_hw.Defs.Fetch vaddr

let jump t ~src ~target =
  let vs = vspace t in
  let paddr = System.translate vs src in
  (match t.recorder with
  | Some r -> Tp_hw.Replay.append_jump r ~vaddr:src ~paddr ~target
  | None -> ());
  ignore
    (Tp_hw.Machine.jump (System.machine t.sys) ~core:t.core
       ~asid:vs.Types.vs_asid ~vaddr:src ~paddr ~target);
  post t

let cond_branch t ~addr ~taken =
  let vs = vspace t in
  let paddr = System.translate vs addr in
  (match t.recorder with
  | Some r -> Tp_hw.Replay.append_cond_branch r ~vaddr:addr ~paddr ~taken
  | None -> ());
  ignore
    (Tp_hw.Machine.cond_branch (System.machine t.sys) ~core:t.core
       ~asid:vs.Types.vs_asid ~vaddr:addr ~paddr ~taken);
  post t

let clflush t vaddr =
  let vs = vspace t in
  let paddr = System.translate vs vaddr in
  (match t.recorder with
  | Some r -> Tp_hw.Replay.append_clflush r ~paddr
  | None -> ());
  ignore (Tp_hw.Machine.clflush (System.machine t.sys) ~core:t.core ~paddr);
  post t

let compute t n =
  assert (n >= 0);
  (match t.recorder with
  | Some r -> Tp_hw.Replay.append_add_cycles r n
  | None -> ());
  Tp_hw.Machine.add_cycles (System.machine t.sys) ~core:t.core n;
  post t

let syscall t call =
  taint t;
  Syscalls.execute t.sys ~core:t.core t.tcb call;
  post t

let remaining t =
  taint t;
  Stdlib.max 0 (t.slice_end - now_ t)

(* Idle out the rest of the slice, polling for interrupts on
   [idle_step]-cycle boundaries (the interrupt latency) — but only on
   the first boundary at or after the earliest deliverable timer,
   capped at the slice end: every poll skipped would have found
   nothing to deliver, so the outcome is exactly that of polling every
   boundary (see [idle_rest] in the interface). *)
let idle_step = 1000

let rec idle_out t =
  let now = now_ t in
  let left = t.slice_end - now in
  if left > 0 then begin
    let pc = System.per_core t.sys t.core in
    let due =
      Irq.next_deliverable (System.irq t.sys) ~core:t.core
        ~partitioned:(System.cfg t.sys).Config.partition_irqs
        ~current:pc.System.cur_kernel
    in
    let advance =
      if due - now >= left then left
      else
        let steps = Stdlib.max 1 ((due - now + idle_step - 1) / idle_step) in
        Stdlib.min left (steps * idle_step)
    in
    Tp_hw.Machine.add_cycles (System.machine t.sys) ~core:t.core advance
  end;
  (* Raises [Preempted] once the clock reaches the slice end. *)
  post t;
  idle_out t

let idle_rest t =
  (* Idling has no machine effect beyond the clock, so the recording is
     a single marker; replay idles out the slice the same way. *)
  (match t.recorder with
  | Some r -> Tp_hw.Replay.append_idle r
  | None -> ());
  idle_out t

let replay t r =
  if not (Tp_hw.Replay.complete r) then false
  else if Irq.next_timer (System.irq t.sys) ~core:t.core <= t.slice_end then
    (* A timer due within the slice would be delivered at a mid-slice
       [post] live; the replay loop performs no IRQ delivery, so the
       states would diverge.  Run live instead. *)
    false
  else
    match t.tcb.Types.t_vspace with
    | None -> false
    | Some vs ->
        let llc_ways = System.cat_mask_of_domain t.sys t.tcb.Types.t_domain in
        (match
           Tp_hw.Replay.replay (System.machine t.sys) ~core:t.core
             ~asid:vs.Types.vs_asid ~llc_ways ~until:t.slice_end r
         with
        | `Done_idle ->
            (* The recorded body idled out its slice: the live idle path,
               which here is a single jump to the slice end. *)
            idle_out t
        | `Budget | `Incomplete ->
            (* The clock is at or past the slice end: [post] raises. *)
            post t;
            true)
