let same_obj a b =
  match (a, b) with
  | Types.Obj_untyped x, Types.Obj_untyped y -> x.Types.u_id = y.Types.u_id
  | Types.Obj_frame x, Types.Obj_frame y -> x.Types.f_id = y.Types.f_id
  | Types.Obj_tcb x, Types.Obj_tcb y -> x.Types.t_id = y.Types.t_id
  | Types.Obj_endpoint x, Types.Obj_endpoint y -> x.Types.ep_id = y.Types.ep_id
  | Types.Obj_notification x, Types.Obj_notification y -> x.Types.nf_id = y.Types.nf_id
  | Types.Obj_vspace x, Types.Obj_vspace y -> x.Types.vs_id = y.Types.vs_id
  | Types.Obj_kernel_image x, Types.Obj_kernel_image y -> x.Types.ki_id = y.Types.ki_id
  | Types.Obj_kernel_memory x, Types.Obj_kernel_memory y -> x.Types.km_id = y.Types.km_id
  | Types.Obj_irq_handler x, Types.Obj_irq_handler y -> x.Types.ih_irq = y.Types.ih_irq
  | Types.Obj_sched_context x, Types.Obj_sched_context y ->
      x.Types.sc_id = y.Types.sc_id
  | Types.Obj_cnode x, Types.Obj_cnode y -> x.Types.cn_id = y.Types.cn_id
  | _ -> false

let is_owner cap =
  match cap.Types.parent with
  | None -> true
  | Some p -> not (same_obj p.Types.target cap.Types.target)

(* The Untyped an object was carved from: nearest ancestor capability
   whose target is an Untyped different from the object itself. *)
let rec parent_untyped cap =
  match cap.Types.parent with
  | None -> None
  | Some p -> begin
      match p.Types.target with
      | Types.Obj_untyped u when not (same_obj p.Types.target cap.Types.target) ->
          Some u
      | _ -> parent_untyped p
    end

(* Returned frames go to the head of the parent's free frames. *)
let return_seq cap frames =
  match parent_untyped cap with
  | Some u -> u.Types.u_free <- Frameseq.append frames u.Types.u_free
  | None -> ()

let return_frames cap frames = return_seq cap (Frameseq.of_list frames)

let destroy_object sys ~core cap =
  match cap.Types.target with
  | Types.Obj_kernel_image _ -> Clone.destroy sys ~core cap
  | Types.Obj_kernel_memory km -> begin
      (* §4.4: destroying active Kernel_Memory invalidates the kernel. *)
      (match km.Types.km_image with
      | Some ki when ki.Types.ki_state = Types.Ki_active ->
          (* The image cap is a CDT node somewhere; destroy through the
             kernel path directly since we hold the object. *)
          let tmp = Capability.mk_root (Types.Obj_kernel_image ki) in
          Clone.destroy sys ~core tmp
      | Some _ | None -> ());
      km.Types.km_image <- None;
      return_frames cap km.Types.km_frames
    end
  | Types.Obj_tcb tcb ->
      tcb.Types.t_state <- Types.Ts_inactive;
      Sched.remove (System.sched sys) ~core:tcb.Types.t_core tcb;
      return_frames cap tcb.Types.t_frames
  | Types.Obj_endpoint ep ->
      List.iter
        (fun t -> t.Types.t_state <- Types.Ts_ready)
        (ep.Types.ep_send_q @ ep.Types.ep_recv_q);
      ep.Types.ep_send_q <- [];
      ep.Types.ep_recv_q <- [];
      return_frames cap ep.Types.ep_frames
  | Types.Obj_notification nf ->
      List.iter (fun t -> t.Types.t_state <- Types.Ts_ready) nf.Types.nf_waiters;
      nf.Types.nf_waiters <- [];
      return_frames cap nf.Types.nf_frames
  | Types.Obj_frame f ->
      (match f.Types.f_mapping with
      | Some (vs, vpn) -> Types.Itbl.remove vs.Types.vs_pages vpn
      | None -> ());
      return_frames cap [ f.Types.f_frame ]
  | Types.Obj_vspace vs ->
      Types.Itbl.reset vs.Types.vs_pages;
      return_frames cap []
  | Types.Obj_untyped u ->
      (* Free frames flow back to the parent; retyped children must
         have been deleted first (revocation order guarantees it). *)
      return_seq cap u.Types.u_free;
      u.Types.u_free <- Frameseq.empty
  | Types.Obj_irq_handler h -> h.Types.ih_kernel <- None
  | Types.Obj_sched_context sc ->
      (* Unbind from any thread still holding it. *)
      List.iter
        (fun t ->
          match t.Types.t_sc with
          | Some s when s.Types.sc_id = sc.Types.sc_id -> t.Types.t_sc <- None
          | Some _ | None -> ())
        (System.all_tcbs sys);
      return_frames cap sc.Types.sc_frames
  | Types.Obj_cnode cn ->
      (* The capabilities stored in the slots die with their storage. *)
      Array.iteri
        (fun i slot ->
          match slot with
          | Some c ->
              if Capability.is_valid c then Capability.invalidate c;
              cn.Types.cn_slots.(i) <- None
          | None -> ())
        cn.Types.cn_slots;
      return_frames cap cn.Types.cn_frames

let delete sys ~core cap =
  Capability.ensure_valid cap;
  let owner = is_owner cap in
  (* Descendants alias the object (or were carved from it); they go
     first, leaves before ancestors. *)
  if owner then
    List.iter
      (fun c ->
        if Capability.is_valid c then begin
          if is_owner c then destroy_object sys ~core c;
          Capability.invalidate c
        end)
      (Capability.descendants cap);
  if Capability.is_valid cap then begin
    if owner then destroy_object sys ~core cap;
    Capability.invalidate cap
  end

let revoke sys ~core cap =
  Capability.ensure_valid cap;
  List.iter
    (fun c ->
      if Capability.is_valid c then begin
        if is_owner c then destroy_object sys ~core c;
        Capability.invalidate c
      end)
    (Capability.descendants cap)
