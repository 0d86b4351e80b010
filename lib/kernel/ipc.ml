let touch_frame_lines sys ~core frames ~lines ~kind =
  let p = System.platform sys in
  let line = p.Tp_hw.Platform.line in
  let asid = System.current_asid sys ~core in
  let global = System.kernel_mappings_global sys in
  match frames with
  | f :: _ ->
      for l = 0 to lines - 1 do
        let pa = Phys.frame_addr f + (l * line) in
        ignore
          (Tp_hw.Machine.access (System.machine sys) ~core ~asid ~global ~vaddr:pa
             ~paddr:pa ~kind ())
      done
  | [] -> ()

let one_way sys ~core ~ep ~from ~to_ =
  let m = System.machine sys in
  let pc = System.per_core sys core in
  let start = System.now sys ~core in
  let from_kernel =
    match from.Types.t_kernel with Some k -> k | None -> pc.System.cur_kernel
  in
  let to_kernel =
    match to_.Types.t_kernel with Some k -> k | None -> from_kernel
  in
  (* Trap into the sender's kernel. *)
  Tp_hw.Machine.add_cycles m ~core Syscalls.trap_cost;
  ignore
    (System.touch_image sys ~core from_kernel ~region:System.Text
       ~off:Layout.entry_stub.Layout.t_off ~len:Layout.entry_stub.Layout.t_len
       ~kind:Tp_hw.Defs.Fetch);
  ignore
    (System.touch_image sys ~core from_kernel ~region:System.Text
       ~off:Layout.handler_ipc.Layout.t_off ~len:Layout.handler_ipc.Layout.t_len
       ~kind:Tp_hw.Defs.Fetch);
  ignore
    (System.touch_image sys ~core from_kernel ~region:System.Stack ~off:0 ~len:128
       ~kind:Tp_hw.Defs.Write);
  (* Endpoint and both TCBs. *)
  touch_frame_lines sys ~core ep.Types.ep_frames ~lines:2 ~kind:Tp_hw.Defs.Write;
  touch_frame_lines sys ~core from.Types.t_frames ~lines:3 ~kind:Tp_hw.Defs.Read;
  touch_frame_lines sys ~core to_.Types.t_frames ~lines:3 ~kind:Tp_hw.Defs.Write;
  ignore
    (System.touch_shared sys ~core Layout.Cur_pointers ~kind:Tp_hw.Defs.Write);
  (* Address-space switch: the receiver becomes current, so kernel
     accesses from here run under its ASID. *)
  pc.System.cur_thread <- Some to_;
  if to_kernel.Types.ki_id <> from_kernel.Types.ki_id then begin
    (* Kernel hand-over without the protection steps (deferred to the
       partition switch in a padded system). *)
    ignore
      (System.touch_image sys ~core from_kernel ~region:System.Stack ~off:0
         ~len:128 ~kind:Tp_hw.Defs.Read);
    ignore
      (System.touch_image sys ~core to_kernel ~region:System.Stack ~off:0 ~len:128
         ~kind:Tp_hw.Defs.Write);
    pc.System.cur_kernel <- to_kernel;
    from_kernel.Types.ki_running_on.(core) <- false;
    to_kernel.Types.ki_running_on.(core) <- true
  end;
  (* Return to user in the receiver's address space. *)
  ignore
    (System.touch_image sys ~core to_kernel ~region:System.Text
       ~off:Layout.entry_stub.Layout.t_off ~len:Layout.entry_stub.Layout.t_len
       ~kind:Tp_hw.Defs.Fetch);
  Tp_hw.Machine.add_cycles m ~core Syscalls.trap_cost;
  System.now sys ~core - start

let send sys ~core ~ep tcb =
  match ep.Types.ep_recv_q with
  | receiver :: rest ->
      ep.Types.ep_recv_q <- rest;
      ignore (one_way sys ~core ~ep ~from:tcb ~to_:receiver);
      receiver.Types.t_state <- Types.Ts_ready;
      Sched.enqueue (System.sched sys) ~core:receiver.Types.t_core receiver
  | [] ->
      tcb.Types.t_state <- Types.Ts_blocked_send;
      ep.Types.ep_send_q <- ep.Types.ep_send_q @ [ tcb ]

let recv sys ~core ~ep tcb =
  match ep.Types.ep_send_q with
  | sender :: rest ->
      ep.Types.ep_send_q <- rest;
      ignore (one_way sys ~core ~ep ~from:sender ~to_:tcb);
      sender.Types.t_state <- Types.Ts_ready;
      Sched.enqueue (System.sched sys) ~core:sender.Types.t_core sender;
      true
  | [] ->
      tcb.Types.t_state <- Types.Ts_blocked_recv;
      ep.Types.ep_recv_q <- ep.Types.ep_recv_q @ [ tcb ];
      false
