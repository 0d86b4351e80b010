let the_untyped cap =
  Capability.ensure_valid cap;
  match cap.Types.target with
  | Types.Obj_untyped u -> u
  | _ -> raise (Types.Kernel_error Types.Wrong_object_type)

let () =
  List.iter Tp_fault.Fault.register
    [ "retype.take_frames"; "retype.register"; "retype.split" ]

let colour_set_of ~n_colours frames =
  Frameseq.fold_left
    (fun s f -> Colour.add s (Colour.colour_of_frame ~n_colours f))
    Colour.empty frames

let untyped_of_frames ~n_colours frames =
  let u =
    {
      Types.u_id = Types.fresh_id ();
      u_free = frames;
      u_retyped = [];
      u_colours = colour_set_of ~n_colours frames;
      u_n_colours = n_colours;
    }
  in
  Capability.mk_root (Types.Obj_untyped u)

let mk_child_untyped parent_cap frames colours =
  let u = the_untyped parent_cap in
  let child =
    {
      Types.u_id = Types.fresh_id ();
      u_free = frames;
      u_retyped = [];
      u_colours = colours;
      u_n_colours = u.Types.u_n_colours;
    }
  in
  u.Types.u_retyped <- Types.Obj_untyped child :: u.Types.u_retyped;
  (* The child capability points at the carved-out object but sits
     under the parent in the CDT, so revoking the parent reclaims it. *)
  let child_cap =
    {
      Types.cap_id = Types.fresh_id ();
      target = Types.Obj_untyped child;
      rights = parent_cap.Types.rights;
      clone_right = false;
      parent = Some parent_cap;
      children = [];
      valid = true;
    }
  in
  parent_cap.Types.children <- child_cap :: parent_cap.Types.children;
  child_cap

let split_colours parent_cap colours =
  let u = the_untyped parent_cap in
  let colour_of f = Colour.colour_of_frame ~n_colours:u.Types.u_n_colours f in
  let mine, rest =
    Frameseq.partition (fun f -> Colour.mem colours (colour_of f)) u.Types.u_free
  in
  List.iter
    (fun c ->
      if not (Frameseq.exists (fun f -> colour_of f = c) mine) then
        raise (Types.Kernel_error Types.Insufficient_colours))
    (Colour.to_list colours);
  Tp_fault.Fault.hit "retype.split";
  u.Types.u_free <- rest;
  mk_child_untyped parent_cap mine colours

(* The first [n] free frames and the rest. *)
let split_free u n =
  if Frameseq.length u.Types.u_free < n then
    raise (Types.Kernel_error Types.Insufficient_untyped);
  Frameseq.split_at n u.Types.u_free

let split_frames parent_cap ~frames =
  let u = the_untyped parent_cap in
  let mine, rest = split_free u frames in
  Tp_fault.Fault.hit "retype.split";
  u.Types.u_free <- rest;
  mk_child_untyped parent_cap mine u.Types.u_colours

(* Transactional frame grab: the frames leave the untyped's free list
   immediately, but if the enclosing operation raises before it
   commits, the rollback returns them (in order, at the head — the
   exact inverse of the take). *)
let take_frames_txn txn cap n =
  let u = the_untyped cap in
  Tp_fault.Fault.hit "retype.take_frames";
  let mine, rest = split_free u n in
  u.Types.u_free <- rest;
  Txn.defer txn (fun () -> u.Types.u_free <- Frameseq.append mine u.Types.u_free);
  Frameseq.to_list mine

let take_frames cap n = Txn.run (fun txn -> take_frames_txn txn cap n)

let take_frames_where cap ~pred n =
  let u = the_untyped cap in
  Tp_fault.Fault.hit "retype.take_frames";
  let matching, rest = Frameseq.partition pred u.Types.u_free in
  if Frameseq.length matching < n then
    raise (Types.Kernel_error Types.Insufficient_untyped);
  let mine, leftover = Frameseq.split_at n matching in
  u.Types.u_free <- Frameseq.append leftover rest;
  Frameseq.to_list mine

let register cap obj =
  let u = the_untyped cap in
  Tp_fault.Fault.hit "retype.register";
  u.Types.u_retyped <- obj :: u.Types.u_retyped;
  let child =
    {
      Types.cap_id = Types.fresh_id ();
      target = obj;
      rights = Types.full_rights;
      clone_right = false;
      parent = Some cap;
      children = [];
      valid = true;
    }
  in
  cap.Types.children <- child :: cap.Types.children;
  child

let retype_tcb cap ~core ~prio =
  Txn.run @@ fun txn ->
  let frames = take_frames_txn txn cap 1 in
  let tcb =
    {
      Types.t_id = Types.fresh_id ();
      t_prio = prio;
      t_state = Types.Ts_inactive;
      t_vspace = None;
      t_kernel = None;
      t_core = core;
      t_sc = None;
      t_domain = 0;
      t_frames = frames;
      t_is_idle = false;
    }
  in
  register cap (Types.Obj_tcb tcb)

let retype_frame cap =
  Txn.run @@ fun txn ->
  match take_frames_txn txn cap 1 with
  | [ f ] ->
      register cap
        (Types.Obj_frame { Types.f_id = Types.fresh_id (); f_frame = f; f_mapping = None })
  | _ -> assert false

let retype_endpoint cap =
  Txn.run @@ fun txn ->
  let frames = take_frames_txn txn cap 1 in
  register cap
    (Types.Obj_endpoint
       { Types.ep_id = Types.fresh_id (); ep_send_q = []; ep_recv_q = []; ep_frames = frames })

let retype_notification cap =
  Txn.run @@ fun txn ->
  let frames = take_frames_txn txn cap 1 in
  register cap
    (Types.Obj_notification
       { Types.nf_id = Types.fresh_id (); nf_word = 0; nf_waiters = []; nf_frames = frames })

let retype_vspace cap ~asid =
  Txn.run @@ fun txn ->
  (* One frame for the top-level page table; leaf page tables are
     allocated on demand at map time (also from the owning pool). *)
  let root_pt =
    match take_frames_txn txn cap 1 with [ f ] -> f | _ -> assert false
  in
  register cap
    (Types.Obj_vspace
       {
         Types.vs_id = Types.fresh_id ();
         vs_asid = asid;
         vs_pages = Types.Itbl.create 64;
         vs_root_pt = root_pt;
         vs_leaf_pts = Types.Itbl.create 16;
         vs_heap_next = 0x1000_0000 / Tp_hw.Defs.page_size;
         vs_memo_pti = -1;
         vs_memo_leaf = -1;
       })

let retype_sched_context cap ~budget ~period =
  assert (budget > 0 && budget <= period);
  Txn.run @@ fun txn ->
  let frames = take_frames_txn txn cap 1 in
  register cap
    (Types.Obj_sched_context
       {
         Types.sc_id = Types.fresh_id ();
         sc_budget = budget;
         sc_period = period;
         sc_remaining = budget;
         sc_replenish_at = 0;
         sc_frames = frames;
       })

let retype_kernel_memory cap ~platform =
  let n = Layout.image_frames platform in
  Txn.run @@ fun txn ->
  let frames = take_frames_txn txn cap n in
  register cap
    (Types.Obj_kernel_memory
       { Types.km_id = Types.fresh_id (); km_frames = frames; km_image = None })

let untyped_free_frames cap = Frameseq.length (the_untyped cap).Types.u_free
