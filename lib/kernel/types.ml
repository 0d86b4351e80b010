(* Kernel object model.

   All kernel objects live in one mutually recursive type family, as is
   usual for graph-shaped OS state in OCaml; the operational modules
   (Retype, Clone, System, ...) are layered on top.  This module
   deliberately has no interface file: it exports only data definitions
   and trivial constructors, and every field is part of the model. *)

type error =
  | Invalid_capability  (** revoked or wrong cap presented *)
  | Insufficient_untyped  (** not enough free frames in the untyped *)
  | Insufficient_colours  (** a coloured allocation cannot be satisfied *)
  | Wrong_object_type
  | No_clone_right  (** Kernel_Image cap lacks the clone right *)
  | Zombie_object  (** operation on a kernel being destroyed *)
  | Out_of_asids
  | Irq_in_use  (** IRQ already associated with another kernel *)
  | Not_bound
  | Invalid_address  (** CSpace lookup failed (guard/depth/empty slot) *)
  | Slot_occupied  (** destination CNode slot already holds a capability *)
  | Double_free  (** releasing a resource (ASID, frame) that is already free *)

exception Kernel_error of error

(* Int-keyed table for the per-access translation lookups: the key's
   own value is its hash and equality is an integer compare, so a
   lookup makes no polymorphic hash or compare call. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (k : int) = k land max_int
end)

let error_to_string = function
  | Invalid_capability -> "invalid capability"
  | Insufficient_untyped -> "insufficient untyped memory"
  | Insufficient_colours -> "insufficient colours"
  | Wrong_object_type -> "wrong object type"
  | No_clone_right -> "no clone right"
  | Zombie_object -> "zombie object"
  | Out_of_asids -> "out of ASIDs"
  | Irq_in_use -> "IRQ in use"
  | Not_bound -> "not bound"
  | Invalid_address -> "invalid CSpace address"
  | Slot_occupied -> "slot occupied"
  | Double_free -> "double free"

(* Uncaught kernel errors in tests and tpsim print the message, not
   just the constructor's ordinal. *)
let () =
  Printexc.register_printer (function
    | Kernel_error e -> Some (Printf.sprintf "Kernel_error(%s)" (error_to_string e))
    | _ -> None)

type rights = { read : bool; write : bool; grant : bool }

let full_rights = { read = true; write = true; grant = true }

type thread_state =
  | Ts_inactive
  | Ts_ready
  | Ts_running
  | Ts_blocked_send
  | Ts_blocked_recv
  | Ts_suspended  (** suspended by kernel destruction (§4.4) *)

type obj =
  | Obj_untyped of untyped
  | Obj_frame of frame
  | Obj_tcb of tcb
  | Obj_endpoint of endpoint
  | Obj_notification of notification
  | Obj_vspace of vspace
  | Obj_kernel_image of kimage
  | Obj_kernel_memory of kmem
  | Obj_irq_handler of irq_handler
  | Obj_sched_context of sched_context
  | Obj_cnode of cnode

and cap = {
  cap_id : int;
  target : obj;
  rights : rights;
  clone_right : bool;  (** meaningful on Kernel_Image caps only *)
  parent : cap option;  (** capability derivation tree *)
  mutable children : cap list;
  mutable valid : bool;  (** false once revoked/deleted *)
}

and untyped = {
  u_id : int;
  mutable u_free : Frameseq.t;  (** free frames owned by this untyped *)
  mutable u_retyped : obj list;  (** objects carved out of it *)
  u_colours : Colour.set;  (** colours of the frames it holds *)
  u_n_colours : int;  (** the platform's colour count, for [u_colours] *)
}

and frame = {
  f_id : int;
  f_frame : int;  (** physical frame number *)
  mutable f_mapping : (vspace * int) option;  (** where it is mapped *)
}

and vspace = {
  vs_id : int;
  mutable vs_asid : int;
  vs_pages : int Itbl.t;  (** vpn -> physical frame *)
  vs_root_pt : int;  (** frame of the top-level page table *)
  vs_leaf_pts : int Itbl.t;
      (** PT index (vpn / 512) -> frame of the leaf page table.  Page
          tables are dynamic kernel data in user-supplied frames, so
          colouring userland colours them too — which is what defeats
          page-table side-channel attacks (§5.3.1, van Schaik 2018). *)
  mutable vs_heap_next : int;  (** next free heap vpn (bump) *)
  mutable vs_memo_pti : int;
      (** Derived, not kernel state: the PT index of the last leaf
          table a walk found ([-1] before the first), so that
          consecutive accesses to one leaf table look it up once.
          Exact because a leaf table, once mapped, is never replaced
          or removed. *)
  mutable vs_memo_leaf : int;  (** the frame of that leaf table *)
}

and tcb = {
  t_id : int;
  mutable t_prio : int;
  mutable t_state : thread_state;
  mutable t_vspace : vspace option;
  mutable t_kernel : kimage option;
      (** the kernel image handling this thread's syscalls (§4.1:
          "we add the capability of the kernel responsible for handling
          its system call to each thread's TCB") *)
  mutable t_core : int;
  mutable t_sc : sched_context option;
      (** scheduling context capping this thread's CPU time; [None] =
          plain round-robin slices *)
  mutable t_domain : int;
      (** security-domain tag; kernel images imply domains under
          cloning, but the full-flush scenario has a single kernel and
          still must flush on domain crossings *)
  t_frames : int list;  (** frames backing the TCB object itself *)
  t_is_idle : bool;
}

and endpoint = {
  ep_id : int;
  mutable ep_send_q : tcb list;
  mutable ep_recv_q : tcb list;
  ep_frames : int list;
}

and notification = {
  nf_id : int;
  mutable nf_word : int;
  mutable nf_waiters : tcb list;
  nf_frames : int list;
}

and sched_context = {
  sc_id : int;
  mutable sc_budget : int;  (** execution budget per period, cycles *)
  mutable sc_period : int;  (** replenishment period, cycles *)
  mutable sc_remaining : int;  (** budget left in the current period *)
  mutable sc_replenish_at : int;  (** cycle at which the budget refills *)
  sc_frames : int list;
}
(** Scheduling-context capability (Lyons et al., EuroSys 2018 — the
    "recently added temporal integrity mechanisms" the paper's §8
    wants time protection combined with).  A thread without one runs
    on raw time slices; a thread with one is capped to [sc_budget]
    cycles per [sc_period], enforcing upper bounds on CPU time
    independently of priority. *)

and kimage_state = Ki_active | Ki_zombie | Ki_destroyed

and kimage = {
  ki_id : int;
  mutable ki_state : kimage_state;
  mutable ki_asid : int;
  ki_is_initial : bool;
  (* Physical placement of the cloned parts (§4.1: code, read-only
     data, stack, replicas of almost all global data, idle thread).
     Image frames come from a (possibly coloured, hence physically
     non-contiguous) pool; byte offset [o] into the image lives in
     [ki_frames.(o / page_size)].  Region offsets come from
     [Layout.image_layout]. *)
  ki_frames : int array;  (** frames backing the image, in offset order *)
  mutable ki_idle : tcb option;
  mutable ki_running_on : bool array;  (** per-core presence bitmap (§4.4) *)
  mutable ki_irqs : int list;  (** IRQs associated via Kernel_SetInt (§4.2) *)
  mutable ki_pad_cycles : int;  (** configured switch-latency pad; 0 = none *)
}

and kmem = {
  km_id : int;
  km_frames : int list;
  mutable km_image : kimage option;  (** the image mapped into it *)
}

and irq_handler = {
  ih_irq : int;
  mutable ih_kernel : kimage option;  (** partition association *)
}

and cnode = {
  cn_id : int;
  cn_radix : int;  (** log2 of the slot count *)
  mutable cn_guard : int;  (** guard value consumed before indexing *)
  mutable cn_guard_bits : int;  (** number of guard bits *)
  cn_slots : cap option array;
  cn_frames : int list;
}
(** Capability storage: seL4 CSpaces are guarded page tables of CNodes.
    An address is resolved MSB-first: each CNode strips its guard then
    indexes a slot by the next [cn_radix] bits; interior slots hold
    further CNode capabilities. *)

(* Object id generation: ids are only used for identity and debugging,
   never for addressing.  The counter is domain-local so parallel
   workers (Tp_par.Pool) allocate ids without racing; the pool gives
   each task a disjoint id region via {!set_id_mark} at every jobs
   level, which keeps ids (and anything hashed on them) bit-identical
   between sequential and parallel runs. *)
let id_counter : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let fresh_id () =
  let c = Domain.DLS.get id_counter in
  incr c;
  !c

let id_mark () = !(Domain.DLS.get id_counter)
let set_id_mark v = Domain.DLS.get id_counter := v

let obj_frame_count = function
  | Obj_untyped u -> Frameseq.length u.u_free
  | Obj_frame _ -> 1
  | Obj_tcb t -> List.length t.t_frames
  | Obj_endpoint e -> List.length e.ep_frames
  | Obj_notification n -> List.length n.nf_frames
  | Obj_vspace _ -> 0
  | Obj_kernel_image k -> Array.length k.ki_frames
  | Obj_kernel_memory m -> List.length m.km_frames
  | Obj_irq_handler _ -> 0
  | Obj_sched_context sc -> List.length sc.sc_frames
  | Obj_cnode cn -> List.length cn.cn_frames

let obj_kind_name = function
  | Obj_untyped _ -> "Untyped"
  | Obj_frame _ -> "Frame"
  | Obj_tcb _ -> "TCB"
  | Obj_endpoint _ -> "Endpoint"
  | Obj_notification _ -> "Notification"
  | Obj_vspace _ -> "VSpace"
  | Obj_kernel_image _ -> "Kernel_Image"
  | Obj_kernel_memory _ -> "Kernel_Memory"
  | Obj_irq_handler _ -> "IRQ_Handler"
  | Obj_sched_context _ -> "Sched_Context"
  | Obj_cnode _ -> "CNode"
