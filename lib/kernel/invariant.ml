(* The global invariant suite, checkable at any point of a system's
   life — after every random operation in the property tests and after
   every injected fault in the fail-at-step-N driver.

   These are the invariants the seL4 proofs establish statically
   (frame conservation, object disjointness, IRQ/scheduler sanity);
   here they are checked dynamically and any violation is reported as
   a human-readable string instead of an assertion failure, so tooling
   (the fail-at-step-N driver) can tabulate them. *)

let sprintf = Printf.sprintf

(* Walk the CDT from a capability, summing the frames owned by live
   objects. *)
let rec frames_of_cap_tree cap =
  if not (Capability.is_valid cap) then 0
  else begin
    let own =
      if Objects.is_owner cap then Types.obj_frame_count cap.Types.target
      else 0
    in
    List.fold_left
      (fun acc child -> acc + frames_of_cap_tree child)
      own cap.Types.children
  end

let user_frames (b : Boot.booted) = frames_of_cap_tree b.Boot.root

let check ?expect_user_frames (b : Boot.booted) =
  let sys = b.Boot.sys in
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  (* Initial kernel alive with an idle thread (§4.4: an idle thread
     always survives). *)
  let ik = System.initial_kernel sys in
  if ik.Types.ki_state <> Types.Ki_active then fail "initial kernel not active";
  if ik.Types.ki_idle = None then fail "initial kernel lost its idle thread";
  let kernels = System.kernels sys in
  (* The registry holds no destroyed kernels and no half-built images. *)
  List.iter
    (fun ki ->
      if ki.Types.ki_state = Types.Ki_destroyed then
        fail "destroyed kernel #%d still registered" ki.Types.ki_id)
    kernels;
  (* Active kernels have pairwise-disjoint frames. *)
  List.iteri
    (fun i ki ->
      List.iteri
        (fun j kj ->
          if i < j then begin
            let si = List.sort_uniq compare (Array.to_list ki.Types.ki_frames) in
            let sj = List.sort_uniq compare (Array.to_list kj.Types.ki_frames) in
            if not (List.for_all (fun f -> not (List.mem f sj)) si) then
              fail "kernels #%d and #%d share frames" ki.Types.ki_id
                kj.Types.ki_id
          end)
        kernels)
    kernels;
  (* Live kernels hold allocated, pairwise-distinct ASIDs (a leaked or
     double-freed ASID would alias two protection domains). *)
  List.iteri
    (fun i ki ->
      if ki.Types.ki_state <> Types.Ki_destroyed then begin
        if ki.Types.ki_asid < 0 then
          fail "live kernel #%d has no ASID" ki.Types.ki_id
        else if
          ki.Types.ki_asid > 0 && System.asid_is_free sys ki.Types.ki_asid
        then
          fail "kernel #%d's ASID %d is on the free list" ki.Types.ki_id
            ki.Types.ki_asid;
        List.iteri
          (fun j kj ->
            if
              i < j
              && kj.Types.ki_state <> Types.Ki_destroyed
              && ki.Types.ki_asid = kj.Types.ki_asid
            then
              fail "kernels #%d and #%d share ASID %d" ki.Types.ki_id
                kj.Types.ki_id ki.Types.ki_asid)
          kernels
      end)
    kernels;
  (* Coloured pools hold only their own colours. *)
  Array.iter
    (fun dom ->
      let u = Retype.the_untyped dom.Boot.dom_pool in
      Frameseq.iter
        (fun f ->
          if
            not
              (Colour.mem dom.Boot.dom_colours
                 (Colour.colour_of_frame ~n_colours:(System.n_colours sys) f))
          then
            fail "domain %d pool holds foreign-coloured frame %d"
              dom.Boot.dom_id f)
        u.Types.u_free)
    b.Boot.domains;
  (* Non-active kernels hold no IRQs; live IRQ associations point at
     active kernels. *)
  List.iter
    (fun ki ->
      if ki.Types.ki_state <> Types.Ki_active && ki.Types.ki_irqs <> [] then
        fail "non-active kernel #%d still holds IRQs" ki.Types.ki_id)
    kernels;
  for irq = 1 to Irq.n_irqs - 1 do
    match (Irq.handler (System.irq sys) irq).Types.ih_kernel with
    | Some k when k.Types.ki_state <> Types.Ki_active ->
        fail "IRQ %d associated with non-active kernel #%d" irq k.Types.ki_id
    | Some _ | None -> ()
  done;
  (* Scheduler queues contain only ready threads. *)
  List.iter
    (fun tcb ->
      if
        Sched.is_queued (System.sched sys) ~core:tcb.Types.t_core tcb
        && tcb.Types.t_state <> Types.Ts_ready
        && tcb.Types.t_state <> Types.Ts_running
      then fail "scheduler queues non-ready thread #%d" tcb.Types.t_id)
    (System.all_tcbs sys);
  (* Frame conservation: the cap forest accounts for every user frame
     handed out at boot — failed operations must not lose or duplicate
     frames. *)
  (match expect_user_frames with
  | Some expected ->
      let tree = user_frames b in
      if tree <> expected then
        fail "frame conservation broken: %d user frames, expected %d" tree
          expected
  | None -> ());
  List.rev !bad

let check_exn ?expect_user_frames b =
  match check ?expect_user_frames b with
  | [] -> ()
  | violations ->
      failwith
        (sprintf "kernel invariants violated:\n  %s"
           (String.concat "\n  " violations))
