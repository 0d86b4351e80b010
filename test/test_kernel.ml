(* Tests for the seL4 model: colours, physical memory, capabilities,
   retype, clone/destroy, IRQ partitioning, scheduling, domain switch,
   IPC, boot, and the execution driver. *)

open Tp_kernel

let haswell = Tp_hw.Platform.haswell
let sabre = Tp_hw.Platform.sabre

let kernel_error = Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (Types.error_to_string e))
    ( = )

let expect_error expected f =
  match f () with
  | _ -> Alcotest.fail "expected Kernel_error"
  | exception Types.Kernel_error e -> Alcotest.check kernel_error "error" expected e

(* ------------------------------------------------------------------ *)
(* Colours *)

let test_colour_split_disjoint () =
  let parts = Colour.split ~n_colours:8 ~parts:2 in
  match parts with
  | [ a; b ] ->
      Alcotest.(check bool) "disjoint" true (Colour.disjoint a b);
      Alcotest.(check int) "a has 4" 4 (Colour.count a);
      Alcotest.(check int) "b has 4" 4 (Colour.count b);
      Alcotest.(check int) "cover all" 255 (Colour.union a b)
  | _ -> Alcotest.fail "expected 2 parts"

let test_colour_split_uneven () =
  let parts = Colour.split ~n_colours:16 ~parts:3 in
  Alcotest.(check int) "3 parts" 3 (List.length parts);
  let total = List.fold_left (fun acc s -> acc + Colour.count s) 0 parts in
  Alcotest.(check int) "all colours used" 16 total

let test_colour_fraction () =
  Alcotest.(check int) "50% of 8" 4 (Colour.count (Colour.fraction ~n_colours:8 ~percent:50));
  Alcotest.(check int) "75% of 8" 6 (Colour.count (Colour.fraction ~n_colours:8 ~percent:75));
  Alcotest.(check int) "1% floors to 1" 1 (Colour.count (Colour.fraction ~n_colours:8 ~percent:1))

let test_colour_of_frame () =
  Alcotest.(check int) "frame 0" 0 (Colour.colour_of_frame ~n_colours:8 0);
  Alcotest.(check int) "frame 9" 1 (Colour.colour_of_frame ~n_colours:8 9)

let test_colour_empty_set () =
  Alcotest.(check int) "count 0" 0 (Colour.count Colour.empty);
  Alcotest.(check (list int)) "to_list []" [] (Colour.to_list Colour.empty);
  Alcotest.(check bool) "no member" false (Colour.mem Colour.empty 0);
  Alcotest.(check bool) "disjoint with all" true
    (Colour.disjoint Colour.empty (Colour.all ~n_colours:8));
  Alcotest.(check bool) "disjoint with itself" true
    (Colour.disjoint Colour.empty Colour.empty);
  Alcotest.(check int) "union identity" (Colour.of_list [ 2; 5 ])
    (Colour.union Colour.empty (Colour.of_list [ 2; 5 ]))

let test_colour_full_mask () =
  let all8 = Colour.all ~n_colours:8 in
  Alcotest.(check int) "mask 0xff" 0xff all8;
  Alcotest.(check int) "count 8" 8 (Colour.count all8);
  Alcotest.(check (list int)) "to_list ascending" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (Colour.to_list all8);
  Alcotest.(check int) "inter identity" all8 (Colour.inter all8 all8);
  Alcotest.(check int) "16 colours" 0xffff (Colour.all ~n_colours:16)

let test_colour_of_list_duplicates () =
  Alcotest.(check int) "duplicates collapse" (Colour.of_list [ 1; 2 ])
    (Colour.of_list [ 1; 2; 2; 1; 1; 2 ]);
  Alcotest.(check int) "count ignores duplicates" 2
    (Colour.count (Colour.of_list [ 7; 7; 3; 3 ]))

let test_colour_disjoint_reflexivity () =
  (* A non-empty set is never disjoint from itself; only the empty set
     is (the linter's overlap rule relies on both directions). *)
  let s = Colour.of_list [ 3 ] in
  Alcotest.(check bool) "non-empty not self-disjoint" false (Colour.disjoint s s);
  Alcotest.(check bool) "symmetric" (Colour.disjoint s Colour.empty)
    (Colour.disjoint Colour.empty s)

(* ------------------------------------------------------------------ *)
(* Physical memory *)

let test_phys_alloc_coloured () =
  let phys = Phys.create haswell in
  ignore (Phys.reserve_boot phys ~frames:10);
  let red = Colour.of_list [ 2 ] in
  (match Phys.alloc phys ~colours:red () with
  | Some f -> Alcotest.(check int) "colour 2" 2 (Phys.colour_of phys f)
  | None -> Alcotest.fail "allocation failed");
  match Phys.alloc_many phys ~colours:red 5 with
  | Some fs ->
      List.iter
        (fun f -> Alcotest.(check int) "all colour 2" 2 (Phys.colour_of phys f))
        fs
  | None -> Alcotest.fail "alloc_many failed"

let test_phys_free_and_reuse () =
  let phys = Phys.create sabre in
  let f = Option.get (Phys.alloc phys ()) in
  let before = Phys.free_frames phys in
  Phys.free phys f;
  Alcotest.(check int) "freed" (before + 1) (Phys.free_frames phys);
  let f' = Option.get (Phys.alloc phys ()) in
  Alcotest.(check int) "lowest-first reuse" f f'

let test_phys_exhaustion () =
  let phys = Phys.create sabre in
  let n = Phys.free_frames phys in
  (match Phys.alloc_many phys n with
  | Some _ -> ()
  | None -> Alcotest.fail "should succeed");
  Alcotest.(check bool) "exhausted" true (Phys.alloc phys () = None)

(* ------------------------------------------------------------------ *)
(* Capabilities and retype *)

let mk_untyped ?(frames = 64) () =
  Retype.untyped_of_frames ~n_colours:8
    (Frameseq.of_list (List.init frames (fun i -> 100 + i)))

let test_retype_takes_frames () =
  let u = mk_untyped () in
  let before = Retype.untyped_free_frames u in
  let _tcb = Retype.retype_tcb u ~core:0 ~prio:5 in
  Alcotest.(check int) "one frame consumed" (before - 1)
    (Retype.untyped_free_frames u)

let test_retype_exhaustion () =
  let u = mk_untyped ~frames:1 () in
  ignore (Retype.retype_tcb u ~core:0 ~prio:0);
  expect_error Types.Insufficient_untyped (fun () ->
      Retype.retype_endpoint u)

let test_split_colours () =
  let u = Retype.untyped_of_frames ~n_colours:8 (Frameseq.of_list (List.init 64 Fun.id)) in
  let red = Retype.split_colours u (Colour.of_list [ 0; 1 ]) in
  Alcotest.(check int) "red got 16 frames" 16 (Retype.untyped_free_frames red);
  Alcotest.(check int) "parent kept 48" 48 (Retype.untyped_free_frames u);
  (* All remaining parent frames avoid colours 0 and 1. *)
  let parent = Retype.the_untyped u in
  Frameseq.iter
    (fun f ->
      Alcotest.(check bool) "colour excluded" true
        (Colour.colour_of_frame ~n_colours:8 f >= 2))
    parent.Types.u_free

let test_split_colours_insufficient () =
  (* Frames 0..7 cover colours 0..7 once; taking colour 0 twice fails. *)
  let u = Retype.untyped_of_frames ~n_colours:8 (Frameseq.of_list [ 1; 2; 3 ]) in
  expect_error Types.Insufficient_colours (fun () ->
      Retype.split_colours u (Colour.of_list [ 0 ]))

let test_cap_derive_strips_clone_right () =
  let u = mk_untyped () in
  ignore u;
  let root = Capability.mk_root ~clone_right:true (Types.Obj_irq_handler { Types.ih_irq = 1; ih_kernel = None }) in
  let child = Capability.derive ~clone_right:false root in
  Alcotest.(check bool) "stripped" false child.Types.clone_right;
  let grandchild = Capability.derive ~clone_right:true child in
  Alcotest.(check bool) "cannot regain" false grandchild.Types.clone_right

let test_cap_derive_invalid_parent () =
  let root = Capability.mk_root (Types.Obj_irq_handler { Types.ih_irq = 2; ih_kernel = None }) in
  Capability.invalidate root;
  expect_error Types.Invalid_capability (fun () -> Capability.derive root)

let test_cap_descendants_postorder () =
  let root = Capability.mk_root (Types.Obj_irq_handler { Types.ih_irq = 3; ih_kernel = None }) in
  let c1 = Capability.derive root in
  let c2 = Capability.derive c1 in
  let ds = Capability.descendants root in
  Alcotest.(check int) "two descendants" 2 (List.length ds);
  (* Leaves first: c2 before c1. *)
  Alcotest.(check bool) "postorder" true
    (List.nth ds 0 == c2 && List.nth ds 1 == c1)

(* ------------------------------------------------------------------ *)
(* Boot / clone / destroy *)

let boot_protected ?(platform = haswell) ?(domains = 2) () =
  Boot.boot ~platform ~config:(Config.protected_ platform) ~domains ()

let boot_raw ?(platform = haswell) ?(domains = 2) () =
  Boot.boot ~platform ~config:Config.raw ~domains ()

let test_boot_protected_disjoint_colours () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) and d1 = b.Boot.domains.(1) in
  Alcotest.(check bool) "disjoint colour sets" true
    (Colour.disjoint d0.Boot.dom_colours d1.Boot.dom_colours);
  (* Every frame in each pool matches the pool's colour set. *)
  let check_pool d =
    let u = Retype.the_untyped d.Boot.dom_pool in
    Frameseq.iter
      (fun f ->
        Alcotest.(check bool) "frame colour in set" true
          (Colour.mem d.Boot.dom_colours (Colour.colour_of_frame ~n_colours:8 f)))
      u.Types.u_free
  in
  check_pool d0;
  check_pool d1

let test_boot_protected_distinct_kernels () =
  let b = boot_protected () in
  Alcotest.(check bool) "different kernel images" true
    (b.Boot.domains.(0).Boot.dom_kernel.Types.ki_id
    <> b.Boot.domains.(1).Boot.dom_kernel.Types.ki_id);
  Alcotest.(check bool) "neither is the initial kernel" true
    (not b.Boot.domains.(0).Boot.dom_kernel.Types.ki_is_initial);
  Alcotest.(check int) "three kernels exist" 3
    (List.length (System.kernels b.Boot.sys))

let test_boot_raw_shares_kernel () =
  let b = boot_raw () in
  Alcotest.(check bool) "same (initial) kernel" true
    (b.Boot.domains.(0).Boot.dom_kernel.Types.ki_is_initial
    && b.Boot.domains.(1).Boot.dom_kernel.Types.ki_is_initial);
  Alcotest.(check bool) "domain caps lack clone right" true
    (not b.Boot.domains.(0).Boot.dom_kernel_cap.Types.clone_right)

let test_cloned_kernel_is_coloured () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  Array.iter
    (fun f ->
      Alcotest.(check bool) "image frame has domain colour" true
        (Colour.mem d0.Boot.dom_colours (Colour.colour_of_frame ~n_colours:8 f)))
    d0.Boot.dom_kernel.Types.ki_frames

let test_clone_has_idle_thread () =
  let b = boot_protected () in
  Alcotest.(check bool) "idle thread exists" true
    (b.Boot.domains.(0).Boot.dom_kernel.Types.ki_idle <> None)

let test_clone_without_right_fails () =
  let b = boot_protected () in
  let stripped = Capability.derive ~clone_right:false b.Boot.master in
  let kmem = Retype.retype_kernel_memory b.Boot.domains.(0).Boot.dom_pool ~platform:haswell in
  expect_error Types.No_clone_right (fun () ->
      Clone.clone b.Boot.sys ~core:0 ~src:stripped ~kmem)

let test_clone_cost_positive () =
  let b = boot_protected () in
  Alcotest.(check bool) "clone consumed cycles" true
    (Clone.clone_cost_cycles b.Boot.sys > 0)

let test_destroy_suspends_threads () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let tcb = Boot.spawn b d0 (fun _ -> ()) in
  Clone.destroy b.Boot.sys ~core:0 d0.Boot.dom_kernel_cap;
  Alcotest.(check bool) "thread suspended" true
    (tcb.Types.t_state = Types.Ts_suspended);
  Alcotest.(check bool) "kernel destroyed" true
    (d0.Boot.dom_kernel.Types.ki_state = Types.Ki_destroyed);
  Alcotest.(check int) "kernel unregistered" 2
    (List.length (System.kernels b.Boot.sys))

let test_destroy_running_kernel_falls_back_to_initial () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  (* Pretend the kernel is running on core 1. *)
  d0.Boot.dom_kernel.Types.ki_running_on.(1) <- true;
  Clone.destroy b.Boot.sys ~core:0 d0.Boot.dom_kernel_cap;
  let pc = System.per_core b.Boot.sys 1 in
  Alcotest.(check bool) "core 1 now runs the initial kernel" true
    pc.System.cur_kernel.Types.ki_is_initial;
  Alcotest.(check bool) "core 1 runs an idle thread" true
    (match pc.System.cur_thread with Some t -> t.Types.t_is_idle | None -> false)

let test_destroy_initial_rejected () =
  let b = boot_protected () in
  expect_error Types.Invalid_capability (fun () ->
      Clone.destroy b.Boot.sys ~core:0 b.Boot.master)

let test_revoke_master_destroys_clones () =
  let b = boot_protected () in
  Objects.revoke b.Boot.sys ~core:0 b.Boot.master;
  Alcotest.(check bool) "clones destroyed" true
    (b.Boot.domains.(0).Boot.dom_kernel.Types.ki_state = Types.Ki_destroyed
    && b.Boot.domains.(1).Boot.dom_kernel.Types.ki_state = Types.Ki_destroyed);
  Alcotest.(check bool) "initial survives" true
    ((System.initial_kernel b.Boot.sys).Types.ki_state = Types.Ki_active);
  Alcotest.(check bool) "master still valid" true
    (Capability.is_valid b.Boot.master)

let test_asid_freed_on_destroy () =
  let b = boot_protected () in
  let before_asid = System.alloc_asid b.Boot.sys in
  System.free_asid b.Boot.sys before_asid;
  Clone.destroy b.Boot.sys ~core:0 b.Boot.domains.(0).Boot.dom_kernel_cap;
  Clone.destroy b.Boot.sys ~core:0 b.Boot.domains.(1).Boot.dom_kernel_cap;
  (* Freed ASIDs are reusable. *)
  let a = System.alloc_asid b.Boot.sys in
  Alcotest.(check bool) "asid reusable" true (a > 0)

(* ------------------------------------------------------------------ *)
(* IRQ partitioning *)

let test_irq_set_int_conflict () =
  let b = boot_protected () in
  Clone.set_int b.Boot.sys ~image:b.Boot.domains.(0).Boot.dom_kernel_cap ~irq:5;
  expect_error Types.Irq_in_use (fun () ->
      Clone.set_int b.Boot.sys ~image:b.Boot.domains.(1).Boot.dom_kernel_cap ~irq:5)

let test_irq_freed_on_destroy () =
  let b = boot_protected () in
  Clone.set_int b.Boot.sys ~image:b.Boot.domains.(0).Boot.dom_kernel_cap ~irq:5;
  Clone.destroy b.Boot.sys ~core:0 b.Boot.domains.(0).Boot.dom_kernel_cap;
  (* Now the other domain may claim it. *)
  Clone.set_int b.Boot.sys ~image:b.Boot.domains.(1).Boot.dom_kernel_cap ~irq:5;
  Alcotest.(check pass) "reclaimed" () ()

let test_irq_partition_defers_foreign_timer () =
  let b = boot_protected () in
  let sys = b.Boot.sys in
  let k0 = b.Boot.domains.(0).Boot.dom_kernel in
  let k1 = b.Boot.domains.(1).Boot.dom_kernel in
  Clone.set_int sys ~image:b.Boot.domains.(0).Boot.dom_kernel_cap ~irq:7;
  Irq.arm_timer (System.irq sys) ~core:0 ~irq:7 ~at:0;
  (* While kernel 1 is current, the partitioned IRQ must not fire. *)
  Alcotest.(check (list int)) "deferred under k1" []
    (Irq.pending (System.irq sys) ~core:0 ~now:100 ~partitioned:true ~current:k1);
  Alcotest.(check (list int)) "delivered under k0" [ 7 ]
    (Irq.pending (System.irq sys) ~core:0 ~now:100 ~partitioned:true ~current:k0)

let test_irq_unpartitioned_delivers_anywhere () =
  let b = boot_raw () in
  let sys = b.Boot.sys in
  Irq.arm_timer (System.irq sys) ~core:0 ~irq:9 ~at:0;
  Alcotest.(check (list int)) "raw: delivered" [ 9 ]
    (Irq.pending (System.irq sys) ~core:0 ~now:1 ~partitioned:false
       ~current:(System.initial_kernel sys))

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let mk_tcb prio =
  {
    Types.t_id = Types.fresh_id ();
    t_prio = prio;
    t_state = Types.Ts_ready;
    t_vspace = None;
    t_kernel = None;
    t_core = 0;
    t_sc = None;
    t_domain = 0;
    t_frames = [];
    t_is_idle = false;
  }

let test_sched_priority_order () =
  let s = Sched.create ~cores:1 in
  let lo = mk_tcb 10 and hi = mk_tcb 200 in
  Sched.enqueue s ~core:0 lo;
  Sched.enqueue s ~core:0 hi;
  (match Sched.dequeue_highest s ~core:0 with
  | Some t -> Alcotest.(check int) "highest first" hi.Types.t_id t.Types.t_id
  | None -> Alcotest.fail "empty");
  match Sched.dequeue_highest s ~core:0 with
  | Some t -> Alcotest.(check int) "then lower" lo.Types.t_id t.Types.t_id
  | None -> Alcotest.fail "empty"

let test_sched_fifo_within_priority () =
  let s = Sched.create ~cores:1 in
  let a = mk_tcb 50 and b = mk_tcb 50 in
  Sched.enqueue s ~core:0 a;
  Sched.enqueue s ~core:0 b;
  (match Sched.dequeue_highest s ~core:0 with
  | Some t -> Alcotest.(check int) "fifo" a.Types.t_id t.Types.t_id
  | None -> Alcotest.fail "empty")

let test_sched_remove () =
  let s = Sched.create ~cores:1 in
  let a = mk_tcb 50 and b = mk_tcb 50 in
  Sched.enqueue s ~core:0 a;
  Sched.enqueue s ~core:0 b;
  Sched.remove s ~core:0 a;
  Alcotest.(check bool) "a gone" false (Sched.is_queued s ~core:0 a);
  Alcotest.(check int) "one left" 1 (Sched.queued_count s ~core:0)

let qcheck_sched_always_highest =
  QCheck.Test.make ~name:"dequeue always returns max priority" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (int_bound 255))
    (fun prios ->
      let s = Sched.create ~cores:1 in
      List.iter (fun p -> Sched.enqueue s ~core:0 (mk_tcb p)) prios;
      match Sched.dequeue_highest s ~core:0 with
      | Some t -> t.Types.t_prio = List.fold_left max 0 prios
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Domain switch *)

let test_switch_updates_current () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let tcb = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched b.Boot.sys) ~core:0 tcb;
  let cost = Domain_switch.switch b.Boot.sys ~core:0 ~to_:tcb in
  let pc = System.per_core b.Boot.sys 0 in
  Alcotest.(check bool) "kernel switched" true cost.Domain_switch.kernel_switched;
  Alcotest.(check bool) "cur thread" true
    (match pc.System.cur_thread with Some t -> t.Types.t_id = tcb.Types.t_id | None -> false);
  Alcotest.(check bool) "cur kernel" true
    (pc.System.cur_kernel.Types.ki_id = d0.Boot.dom_kernel.Types.ki_id)

(* Minor-heap words one [Domain_switch.switch] allocates on haswell,
   alternating between two domains' threads (every switch crosses
   domains, and kernels where they are cloned), averaged over 64
   switches after 4 warm-up ones. *)
let switch_words kind =
  let b = Tp_core.Scenario.boot kind haswell in
  let sys = b.Boot.sys in
  let t0 = Boot.spawn b b.Boot.domains.(0) (fun _ -> ()) in
  let t1 = Boot.spawn b b.Boot.domains.(1) (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 t0;
  Sched.remove (System.sched sys) ~core:0 t1;
  let switch i =
    let to_ = if i land 1 = 0 then t0 else t1 in
    ignore (Domain_switch.switch sys ~core:0 ~to_)
  in
  for i = 0 to 3 do switch i done;
  let n = 64 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do switch i done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* A switch allocates its cost record and the [Some] for the current
   thread, and nothing else: no closures, optional arguments or lists
   per touched region or flush step.  Every pool domain shares the
   minor GC, so a boxing switch slows the other worker too. *)
let test_switch_allocation () =
  List.iter
    (fun (slug, kind) ->
      Alcotest.(check (float 0.0))
        (slug ^ ": minor words per switch") 7.0 (switch_words kind))
    Tp_core.Scenario.slugs

let test_switch_flushes_on_core_state () =
  let b = boot_protected ~platform:sabre () in
  let sys = b.Boot.sys in
  let m = System.machine sys in
  (* Dirty the L1 and TLB. *)
  for i = 0 to 63 do
    ignore
      (Tp_hw.Machine.access m ~core:0 ~asid:7 ~vaddr:(i * 4096) ~paddr:(i * 4096)
         ~kind:Tp_hw.Defs.Write ())
  done;
  let tcb = Boot.spawn b b.Boot.domains.(0) (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 tcb;
  let cost = Domain_switch.switch sys ~core:0 ~to_:tcb in
  Alcotest.(check bool) "flush cost positive" true (cost.Domain_switch.flush > 0);
  (* The switch's own post-flush steps (shared-data prefetch, timer
     reprogramming) re-install a few kernel TLB entries, but every
     pre-switch user entry must be gone. *)
  for i = 0 to 63 do
    Alcotest.(check bool) "user TLB entry flushed" false
      (Tp_hw.Tlb.probe (Tp_hw.Machine.dtlb m ~core:0) ~asid:7 ~vpn:i)
  done

let test_switch_padding_makes_total_constant () =
  (* With padding, total switch latency is the pad regardless of the
     dirty state left behind (Requirement 4 / Table 4). *)
  let run ~dirty =
    let b = boot_protected ~platform:sabre () in
    let sys = b.Boot.sys in
    let m = System.machine sys in
    for i = 0 to dirty - 1 do
      ignore
        (Tp_hw.Machine.access m ~core:0 ~asid:7 ~vaddr:(i * 32) ~paddr:(i * 32)
           ~kind:Tp_hw.Defs.Write ())
    done;
    let tcb = Boot.spawn b b.Boot.domains.(0) (fun _ -> ()) in
    Sched.remove (System.sched sys) ~core:0 tcb;
    let d1 = b.Boot.domains.(1) in
    let tcb1 = Boot.spawn b d1 (fun _ -> ()) in
    Sched.remove (System.sched sys) ~core:0 tcb1;
    ignore (Domain_switch.switch sys ~core:0 ~to_:tcb);
    (* Second switch crosses kernels with a padded outgoing kernel. *)
    (Domain_switch.switch sys ~core:0 ~to_:tcb1).Domain_switch.total
  in
  let a = run ~dirty:0 and bm = run ~dirty:1000 in
  Alcotest.(check int) "padded totals equal" a bm

let test_switch_no_pad_varies () =
  let cfgp = { (Config.protected_ sabre) with Config.pad_cycles = 0 } in
  let run ~dirty =
    let b = Boot.boot ~platform:sabre ~config:cfgp ~domains:2 () in
    let sys = b.Boot.sys in
    let m = System.machine sys in
    for i = 0 to dirty - 1 do
      ignore
        (Tp_hw.Machine.access m ~core:0 ~asid:7 ~vaddr:(i * 32) ~paddr:(i * 32)
           ~kind:Tp_hw.Defs.Write ())
    done;
    let tcb = Boot.spawn b b.Boot.domains.(0) (fun _ -> ()) in
    Sched.remove (System.sched sys) ~core:0 tcb;
    (* Measure the first kernel-crossing switch: the one that writes
       back the dirt the "sender" left. *)
    (Domain_switch.switch sys ~core:0 ~to_:tcb).Domain_switch.total
  in
  Alcotest.(check bool) "unpadded totals vary with dirtiness" true
    (run ~dirty:1000 > run ~dirty:0)

let test_switch_raw_no_flush () =
  let b = boot_raw () in
  let tcb = Boot.spawn b b.Boot.domains.(0) (fun _ -> ()) in
  Sched.remove (System.sched b.Boot.sys) ~core:0 tcb;
  let cost = Domain_switch.switch b.Boot.sys ~core:0 ~to_:tcb in
  Alcotest.(check int) "no flush in raw mode" 0 cost.Domain_switch.flush;
  Alcotest.(check int) "no padding in raw mode" 0 cost.Domain_switch.pad_wait

(* ------------------------------------------------------------------ *)
(* Memory mapping and user access *)

let test_alloc_pages_and_access () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let base = Boot.alloc_pages b d0 ~pages:4 in
  let tcb = Boot.spawn b d0 (fun _ -> ()) in
  let lat = System.user_access b.Boot.sys ~core:0 tcb ~vaddr:base ~kind:Tp_hw.Defs.Read in
  Alcotest.(check bool) "access works" true (lat > 0)

let test_alloc_pages_coloured () =
  let b = boot_protected () in
  let d1 = b.Boot.domains.(1) in
  let base = Boot.alloc_pages b d1 ~pages:8 in
  let vs = d1.Boot.dom_vspace in
  for i = 0 to 7 do
    let pa = System.translate vs (base + (i * 4096)) in
    let frame = pa / 4096 in
    Alcotest.(check bool) "frame colour within domain" true
      (Colour.mem d1.Boot.dom_colours (Colour.colour_of_frame ~n_colours:8 frame))
  done

let test_unmapped_access_faults () =
  let b = boot_protected () in
  let tcb = Boot.spawn b b.Boot.domains.(0) (fun _ -> ()) in
  expect_error Types.Invalid_capability (fun () ->
      System.user_access b.Boot.sys ~core:0 tcb ~vaddr:0x7000_0000
        ~kind:Tp_hw.Defs.Read)

(* ------------------------------------------------------------------ *)
(* Exec driver *)

let test_exec_runs_bodies_alternately () =
  let b = boot_protected () in
  let log = ref [] in
  let mk id = fun _ctx -> log := id :: !log in
  ignore (Boot.spawn b b.Boot.domains.(0) (mk 0));
  ignore (Boot.spawn b b.Boot.domains.(1) (mk 1));
  Exec.run_slices b.Boot.sys ~core:0 ~slice_cycles:200_000 ~slices:6 ();
  let runs = List.rev !log in
  Alcotest.(check int) "six slices" 6 (List.length runs);
  (* Round robin: adjacent slices alternate domains. *)
  let rec alternates = function
    | a :: b :: rest -> a <> b && alternates (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "alternating" true (alternates runs)

let test_exec_preempts_infinite_body () =
  let b = boot_protected () in
  let iters = ref 0 in
  ignore
    (Boot.spawn b b.Boot.domains.(0) (fun ctx ->
         while true do
           incr iters;
           Uctx.compute ctx 100
         done));
  Exec.run_slices b.Boot.sys ~core:0 ~slice_cycles:100_000 ~slices:2 ();
  Alcotest.(check bool) "body preempted, made progress" true (!iters > 100)

let test_exec_slice_timing () =
  let b = boot_protected ~platform:sabre () in
  let sys = b.Boot.sys in
  ignore (Boot.spawn b b.Boot.domains.(0) (fun _ -> ()));
  let t0 = System.now sys ~core:0 in
  Exec.run_slices sys ~core:0 ~slice_cycles:50_000 ~slices:4 ();
  let elapsed = System.now sys ~core:0 - t0 in
  Alcotest.(check bool) "~4 slices worth of cycles" true (elapsed >= 200_000)

let test_uctx_timer_interrupts_online_time () =
  (* A fired, unpartitioned timer interrupts the running thread and
     shows as a cycle jump (the Figure 6 receiver's observable). *)
  let b = boot_raw () in
  let sys = b.Boot.sys in
  let jumps = ref 0 in
  ignore
    (Boot.spawn b b.Boot.domains.(0) (fun ctx ->
         Irq.arm_timer (System.irq sys) ~core:0 ~irq:4 ~at:(Uctx.now ctx + 20_000);
         let last = ref (Uctx.now ctx) in
         try
           while true do
             Uctx.compute ctx 10;
             let n = Uctx.now ctx in
             if n - !last > 1_000 then incr jumps;
             last := n
           done
         with Uctx.Preempted -> ()));
  Exec.run_slices sys ~core:0 ~slice_cycles:100_000 ~slices:1 ();
  Alcotest.(check int) "exactly one mid-slice jump" 1 !jumps

(* Event-driven idling: [Uctx.idle_rest] jumps from one interrupt
   poll that can deliver something to the next.  The reference is the
   step-by-step loop it replaced, kept only here: poll every 1000
   cycles, delivering whatever has fired. *)
let polling_idle sys ~slice_end =
  let now () = System.now sys ~core:0 in
  let post () =
    let pc = System.per_core sys 0 in
    List.iter
      (fun irq -> Syscalls.handle_irq sys ~core:0 ~irq)
      (Irq.pending (System.irq sys) ~core:0 ~now:(now ())
         ~partitioned:(System.cfg sys).Config.partition_irqs
         ~current:pc.System.cur_kernel);
    if now () >= slice_end then raise Uctx.Preempted
  in
  let rec go () =
    let left = slice_end - now () in
    if left <= 0 then (post (); raise Uctx.Preempted)
    else begin
      Tp_hw.Machine.add_cycles (System.machine sys) ~core:0 (min 1000 left);
      post ();
      go ()
    end
  in
  go ()

(* Who a timer's IRQ is routed to: the running domain's kernel, the
   other domain's (masked under partitioning), or nobody. *)
type irq_owner = Own | Foreign | Unrouted

(* When a timer fires, relative to the idle start or the slice end. *)
type irq_due =
  | Past of int
  | Step of int  (** on the [n]th 1000-cycle boundary *)
  | At_end
  | Beyond of int
  | Within of int

let idle_case =
  let open QCheck.Gen in
  let owner = oneofl [ Own; Foreign; Unrouted ] in
  let due =
    oneof
      [
        map (fun d -> Past d) (int_range 0 5_000);
        map (fun k -> Step k) (int_range 0 50);
        return At_end;
        map (fun d -> Beyond d) (int_range 1 5_000);
        map (fun x -> Within x) (int_range 0 50_000);
      ]
  in
  let print (partition, slice, timers) =
    Printf.sprintf "partition=%b slice=%d timers=[%s]" partition slice
      (String.concat "; "
         (List.map
            (fun (o, d) ->
              Printf.sprintf "%s@%s"
                (match o with Own -> "own" | Foreign -> "foreign" | Unrouted -> "unrouted")
                (match d with
                | Past d -> Printf.sprintf "now-%d" d
                | Step k -> Printf.sprintf "step %d" k
                | At_end -> "end"
                | Beyond d -> Printf.sprintf "end+%d" d
                | Within x -> Printf.sprintf "now+%d" x))
            timers))
  in
  QCheck.make ~print
    (triple bool
       (oneof [ return 0; int_range 1 50_000 ])
       (list_size (int_range 0 6) (pair owner due)))

(* Idle out a slice of [slice] cycles on a protected haswell system
   (partitioning as drawn) with the drawn timers armed, and return
   what idling leaves behind: the clock, the delivered IRQs with their
   delivery instants, the timers still armed, and the machine state. *)
let idle_outcome (partition, slice, timers) idle =
  let config = { (Config.protected_ haswell) with Config.partition_irqs = partition } in
  let b = Boot.boot ~platform:haswell ~config ~domains:2 () in
  let sys = b.Boot.sys in
  let d0 = b.Boot.domains.(0) and d1 = b.Boot.domains.(1) in
  let tcb = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 tcb;
  ignore (Domain_switch.switch sys ~core:0 ~to_:tcb);
  let now0 = System.now sys ~core:0 in
  let slice_end = now0 + slice in
  List.iteri
    (fun i (owner, due) ->
      let irq = i + 1 in
      (match owner with
      | Own -> Clone.set_int sys ~image:d0.Boot.dom_kernel_cap ~irq
      | Foreign -> Clone.set_int sys ~image:d1.Boot.dom_kernel_cap ~irq
      | Unrouted -> ());
      let at =
        match due with
        | Past d -> now0 - d
        | Step k -> now0 + (k * 1000)
        | At_end -> slice_end
        | Beyond d -> slice_end + d
        | Within x -> now0 + x
      in
      Irq.arm_timer (System.irq sys) ~core:0 ~irq ~at)
    timers;
  (* The IRQ handler reads the IRQ's own table slot: the audit hook
     sees every delivery, in order, with its clock. *)
  let delivered = ref [] in
  System.set_shared_audit sys
    (Some
       (fun region ~off ~len:_ ~kind:_ ->
         if region = Layout.Irq_tables then
           delivered := (off / 64, System.now sys ~core:0) :: !delivered));
  (match idle sys tcb ~slice_end with
  | () -> Alcotest.fail "idling returned without preemption"
  | exception Uctx.Preempted -> ());
  System.set_shared_audit sys None;
  let clock = System.now sys ~core:0 in
  let digest = Tp_hw.Machine.state_digest (System.machine sys) in
  (* Each timer has its own IRQ, so draining the rest by fire time
     identifies exactly which timers are still armed. *)
  let armed =
    Irq.pending (System.irq sys) ~core:0 ~now:max_int ~partitioned:false
      ~current:(System.initial_kernel sys)
  in
  (clock, List.rev !delivered, armed, digest)

let qcheck_idle_matches_polling =
  QCheck.Test.make ~name:"idle_rest matches the 1000-cycle polling loop"
    ~count:40 idle_case (fun case ->
      let jumped =
        idle_outcome case (fun sys tcb ~slice_end ->
            Uctx.idle_rest (Uctx.make sys ~core:0 tcb ~slice_end))
      in
      let polled =
        idle_outcome case (fun sys _ ~slice_end -> polling_idle sys ~slice_end)
      in
      jumped = polled)

(* [Irq.pending] against a reference model: the partition, stable
   sort by fire time and map it has always been defined as.  Few IRQ
   lines and few deadlines, so duplicate deadlines and several timers
   per line are common; each line is bound to the current kernel,
   another one, or none. *)
let mk_kimage id =
  {
    Types.ki_id = id;
    ki_state = Types.Ki_active;
    ki_asid = id;
    ki_is_initial = false;
    ki_frames = [||];
    ki_idle = None;
    ki_running_on = [| false |];
    ki_irqs = [];
    ki_pad_cycles = 0;
  }

let ref_pending timers ~now ~deliverable =
  let fired, rest =
    List.partition (fun (irq, at) -> at <= now && deliverable irq) timers
  in
  (List.map fst (List.sort (fun (_, a) (_, b) -> compare a b) fired), rest)

(* One step on one of two cores: arm [irq] at [x], cancel [irq], drop
   the timers due by [x] (the mask race), or poll at [x]. *)
let pending_case =
  let open QCheck.Gen in
  let step =
    quad (int_bound 3) (int_bound 1) (int_range 1 6) (int_bound 14)
  in
  QCheck.make
    ~print:
      QCheck.Print.(
        triple (list (quad int int int int)) bool (list int))
    (triple (list_size (int_bound 30) step) bool
       (list_repeat 6 (int_bound 2)))

(* Every step is checked against the model, and so is [next_timer] on
   both cores after it: the controller caches each core's earliest
   deadline, and a cache left stale by any operation shows here. *)
let qcheck_pending_matches_model =
  QCheck.Test.make ~name:"Irq.pending matches its reference model" ~count:300
    pending_case (fun (steps, partitioned, binding) ->
      let irq = Irq.create ~cores:2 in
      let current = mk_kimage 1 and other = mk_kimage 2 in
      (* binding.(i - 1): 0 the current kernel, 1 another, 2 none. *)
      List.iteri
        (fun i b ->
          match b with
          | 0 -> Irq.set_int irq ~irq:(i + 1) current
          | 1 -> Irq.set_int irq ~irq:(i + 1) other
          | _ -> ())
        binding;
      let deliverable i =
        (not partitioned) || List.nth binding (i - 1) <> 1
      in
      (* Per core, most recently armed first, as the controller keeps
         them. *)
      let model = Array.make 2 [] in
      let earliest ts = List.fold_left (fun m (_, at) -> min m at) max_int ts in
      let step_ok (op, core, i, x) =
        let polled =
          match op with
          | 0 ->
              Irq.arm_timer irq ~core ~irq:i ~at:x;
              model.(core) <- (i, x) :: model.(core);
              true
          | 1 ->
              Irq.cancel_timers irq ~core ~irq:i;
              model.(core) <- List.filter (fun (j, _) -> j <> i) model.(core);
              true
          | 2 ->
              Irq.drop_masked_race irq ~core ~now:x;
              model.(core) <- List.filter (fun (_, at) -> at > x) model.(core);
              true
          | _ ->
              let expect, rest = ref_pending model.(core) ~now:x ~deliverable in
              model.(core) <- rest;
              Irq.pending irq ~core ~now:x ~partitioned ~current = expect
        in
        polled
        && Irq.next_timer irq ~core:0 = earliest model.(0)
        && Irq.next_timer irq ~core:1 = earliest model.(1)
      in
      List.for_all step_ok steps
      &&
      (* What is left behind, drained in fire-time order. *)
      List.for_all
        (fun core ->
          Irq.pending irq ~core ~now:max_int ~partitioned:false ~current
          = fst (ref_pending model.(core) ~now:max_int ~deliverable:(fun _ -> true))
          && Irq.next_timer irq ~core = max_int)
        [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* IPC *)

let test_ipc_cost_positive_and_warm () =
  let b = boot_raw () in
  let sys = b.Boot.sys in
  let d0 = b.Boot.domains.(0) in
  let ep = Boot.new_endpoint b d0 in
  let t1 = Boot.spawn b d0 (fun _ -> ()) in
  let t2 = Boot.spawn b d0 (fun _ -> ()) in
  let cold = Ipc.one_way sys ~core:0 ~ep ~from:t1 ~to_:t2 in
  let warm = Ipc.one_way sys ~core:0 ~ep ~from:t2 ~to_:t1 in
  Alcotest.(check bool) "cold > warm" true (cold > warm);
  Alcotest.(check bool) "warm is hundreds of cycles" true
    (warm > 100 && warm < 5_000)

let test_ipc_rendezvous_blocks_and_wakes () =
  let b = boot_raw () in
  let sys = b.Boot.sys in
  let d0 = b.Boot.domains.(0) in
  let ep = Boot.new_endpoint b d0 in
  let t1 = Boot.spawn b d0 (fun _ -> ()) in
  let t2 = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 t1;
  Sched.remove (System.sched sys) ~core:0 t2;
  Alcotest.(check bool) "recv with no sender blocks" false
    (Ipc.recv sys ~core:0 ~ep t2);
  Alcotest.(check bool) "blocked state" true
    (t2.Types.t_state = Types.Ts_blocked_recv);
  Ipc.send sys ~core:0 ~ep t1;
  Alcotest.(check bool) "receiver woken" true (t2.Types.t_state = Types.Ts_ready)

let test_ipc_global_mappings_cheaper_on_arm () =
  (* Table 5's mechanism: per-ASID kernel mappings (colour-ready) cost
     more on the Sabre's tiny TLBs than global mappings (original). *)
  let measure config =
    let b = Boot.boot ~platform:sabre ~config ~domains:1 () in
    let sys = b.Boot.sys in
    let d0 = b.Boot.domains.(0) in
    let ep = Boot.new_endpoint b d0 in
    let t1 = Boot.spawn b d0 (fun _ -> ()) in
    let t2 = Boot.spawn b d0 (fun _ -> ()) in
    (* Give the two threads distinct address spaces. *)
    let asid = System.alloc_asid sys in
    let vs_cap = Retype.retype_vspace d0.Boot.dom_pool ~asid in
    (match vs_cap.Types.target with
    | Types.Obj_vspace vs -> t2.Types.t_vspace <- Some vs
    | _ -> ());
    (* Warm up, then measure the steady state of ping-pong IPC. *)
    for _ = 1 to 10 do
      ignore (Ipc.one_way sys ~core:0 ~ep ~from:t1 ~to_:t2);
      ignore (Ipc.one_way sys ~core:0 ~ep ~from:t2 ~to_:t1)
    done;
    let t0 = System.now sys ~core:0 in
    for _ = 1 to 50 do
      ignore (Ipc.one_way sys ~core:0 ~ep ~from:t1 ~to_:t2);
      ignore (Ipc.one_way sys ~core:0 ~ep ~from:t2 ~to_:t1)
    done;
    (System.now sys ~core:0 - t0) / 100
  in
  let original = measure Config.raw in
  let colour_ready =
    measure { Config.raw with Config.clone_kernel = true }
  in
  Alcotest.(check bool)
    (Printf.sprintf "colour-ready (%d) slower than original (%d)" colour_ready
       original)
    true
    (colour_ready > original)

(* ------------------------------------------------------------------ *)
(* Boot state pin *)

(* Frame numbers choose cache sets, so the order in which boot hands
   out frames is part of every result.  This pins, per platform and
   scenario, the machine state after boot together with the root
   Untyped's and every domain pool's free frames, in order. *)
let boot_state_digest p kind =
  let b = Tp_core.Scenario.boot kind p in
  let buf = Buffer.create 65536 in
  let add_frames cap =
    List.iter
      (fun f -> Buffer.add_string buf (string_of_int f); Buffer.add_char buf ',')
      (Frameseq.to_list (Retype.the_untyped cap).Types.u_free);
    Buffer.add_char buf '|'
  in
  Buffer.add_string buf (Tp_hw.Machine.state_digest (System.machine b.Boot.sys));
  add_frames b.Boot.root;
  Array.iter (fun d -> add_frames d.Boot.dom_pool) b.Boot.domains;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_boot_digests =
  [
    ("haswell/raw", "c65cb0b80d20b4caf6425d352e249485");
    ("haswell/full-flush", "4fef3918733a6ba12e4e7faf045a7dd7");
    ("haswell/protected", "da77596ab85d2881e448647bbe2c9a65");
    ("haswell/coloured-only", "1c813496eea58d2efe357d60bf8f9580");
    ("haswell/no-pad", "da77596ab85d2881e448647bbe2c9a65");
    ("haswell/no-prefetcher", "a9b0bd8c663a3f7927d12af930ec6289");
    ("haswell/cat-llc", "c65cb0b80d20b4caf6425d352e249485");
    ("sabre/raw", "b927637c1aea547f6585a551a7f825f0");
    ("sabre/full-flush", "b927637c1aea547f6585a551a7f825f0");
    ("sabre/protected", "26fc54bd56710995768f5d6e86e09e14");
    ("sabre/coloured-only", "b45a5cf4886abf01ba966269b145ce6e");
    ("sabre/no-pad", "26fc54bd56710995768f5d6e86e09e14");
    ("sabre/no-prefetcher", "26fc54bd56710995768f5d6e86e09e14");
    ("sabre/cat-llc", "b927637c1aea547f6585a551a7f825f0");
    ("armv8/raw", "d1a27a6ca8feb09fb777570c1fdd072b");
    ("armv8/full-flush", "d1a27a6ca8feb09fb777570c1fdd072b");
    ("armv8/protected", "bba93947fc70c7ac07e70cb413a6d126");
    ("armv8/coloured-only", "324b7ef533aa925487547675861a785e");
    ("armv8/no-pad", "bba93947fc70c7ac07e70cb413a6d126");
    ("armv8/no-prefetcher", "bba93947fc70c7ac07e70cb413a6d126");
    ("armv8/cat-llc", "d1a27a6ca8feb09fb777570c1fdd072b");
  ]

let test_boot_state_pinned () =
  List.iter
    (fun p ->
      List.iter
        (fun (slug, kind) ->
          let key = p.Tp_hw.Platform.name ^ "/" ^ slug in
          let got = boot_state_digest p kind in
          match List.assoc_opt key pinned_boot_digests with
          | Some want -> Alcotest.(check string) key want got
          | None -> Alcotest.failf "no pinned digest for %s" key)
        Tp_core.Scenario.slugs)
    Tp_hw.Platform.all

(* ------------------------------------------------------------------ *)
(* Frame-sequence model *)

(* Untyped free frames are a [Frameseq.t]; their order semantics are
   those of the plain [int list] they replaced.  Random sequences of
   takes, rollbacks (prepend), colour partitions, head splits and
   revokes (append) run against the kernel and against that list
   model; both must yield the same frames in the same order and the
   same errors.  [on_child] aims an op at the newest carved child. *)
type fs_op =
  | Fs_take of { on_child : bool; n : int }
  | Fs_take_colour of { on_child : bool; colour : int; n : int }
  | Fs_rollback of { on_child : bool }
  | Fs_split_colours of Colour.set
  | Fs_split_at of int
  | Fs_return

let fs_op_to_string = function
  | Fs_take { on_child; n } -> Printf.sprintf "take%s %d" (if on_child then "@child" else "") n
  | Fs_take_colour { on_child; colour; n } ->
      Printf.sprintf "take-colour%s %d %d" (if on_child then "@child" else "") colour n
  | Fs_rollback { on_child } -> Printf.sprintf "rollback%s" (if on_child then "@child" else "")
  | Fs_split_colours cs -> Format.asprintf "split-colours %a" Colour.pp cs
  | Fs_split_at n -> Printf.sprintf "split-at %d" n
  | Fs_return -> "return"

let fs_case_arbitrary =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map2 (fun on_child n -> Fs_take { on_child; n }) bool (int_range 0 12));
        ( 3,
          map3
            (fun on_child colour n -> Fs_take_colour { on_child; colour; n })
            bool (int_range 0 7) (int_range 0 6) );
        (2, map (fun on_child -> Fs_rollback { on_child }) bool);
        (2, map (fun cs -> Fs_split_colours cs) (int_range 0 255));
        (2, map (fun n -> Fs_split_at n) (int_range 0 40));
        (2, return Fs_return);
      ]
  in
  QCheck.make
    ~print:(fun (frames, ops) ->
      Printf.sprintf "frames [%s]; ops [%s]"
        (String.concat ";" (List.map string_of_int frames))
        (String.concat "; " (List.map fs_op_to_string ops)))
    (pair (list_size (int_range 0 80) (int_range 0 63)) (list_size (int_range 0 25) op))

let fs_injected = Types.Kernel_error Types.Zombie_object
let fs_colour f = Colour.colour_of_frame ~n_colours:8 f

(* Each op observes its result, then the free frames of the root and
   of every live child, newest first. *)
let fs_run_kernel (frames, ops) =
  let sys = System.create haswell Config.raw in
  let root = Retype.untyped_of_frames ~n_colours:8 (Frameseq.of_list frames) in
  let children = ref [] in
  let target on_child =
    match !children with c :: _ when on_child -> c | _ -> root
  in
  let free cap = Frameseq.to_list (Retype.the_untyped cap).Types.u_free in
  let run f = match f () with fs -> Ok fs | exception e -> Error e in
  let carve f =
    let cap = f () in
    children := cap :: !children;
    free cap
  in
  List.map
    (fun op ->
      let out =
        match op with
        | Fs_take { on_child; n } -> run (fun () -> Retype.take_frames (target on_child) n)
        | Fs_take_colour { on_child; colour; n } ->
            run (fun () ->
                Retype.take_frames_where (target on_child)
                  ~pred:(fun f -> fs_colour f = colour) n)
        | Fs_rollback { on_child } ->
            (* The retype takes a frame, then fails to register. *)
            Tp_fault.Fault.arm ~point:"retype.register" fs_injected;
            Fun.protect ~finally:Tp_fault.Fault.disarm (fun () ->
                run (fun () ->
                    ignore (Retype.retype_tcb (target on_child) ~core:0 ~prio:0);
                    []))
        | Fs_split_colours cs -> run (fun () -> carve (fun () -> Retype.split_colours root cs))
        | Fs_split_at n -> run (fun () -> carve (fun () -> Retype.split_frames root ~frames:n))
        | Fs_return ->
            (match !children with
            | c :: rest ->
                Objects.delete sys ~core:0 c;
                children := rest
            | [] -> ());
            Ok []
      in
      (out, free root :: List.map free !children))
    ops

let fs_run_model (frames, ops) =
  let root = ref frames in
  let children = ref [] in
  let target on_child =
    match !children with c :: _ when on_child -> c | _ -> root
  in
  let rec split n = function
    | l when n = 0 -> ([], l)
    | [] -> ([], [])
    | f :: l ->
        let a, b = split (n - 1) l in
        (f :: a, b)
  in
  let take r n =
    if List.length !r < n then Error (Types.Kernel_error Types.Insufficient_untyped)
    else begin
      let mine, rest = split n !r in
      r := rest;
      Ok mine
    end
  in
  let carve mine = children := ref mine :: !children in
  List.map
    (fun op ->
      let out =
        match op with
        | Fs_take { on_child; n } -> take (target on_child) n
        | Fs_take_colour { on_child; colour; n } ->
            let r = target on_child in
            let matching, rest = List.partition (fun f -> fs_colour f = colour) !r in
            if List.length matching < n then
              Error (Types.Kernel_error Types.Insufficient_untyped)
            else begin
              let mine, leftover = split n matching in
              r := leftover @ rest;
              Ok mine
            end
        | Fs_rollback { on_child } ->
            if !(target on_child) = [] then
              Error (Types.Kernel_error Types.Insufficient_untyped)
            else Error fs_injected
        | Fs_split_colours cs ->
            let mine, rest = List.partition (fun f -> Colour.mem cs (fs_colour f)) !root in
            if
              List.for_all
                (fun c -> List.exists (fun f -> fs_colour f = c) mine)
                (Colour.to_list cs)
            then begin
              root := rest;
              carve mine;
              Ok mine
            end
            else Error (Types.Kernel_error Types.Insufficient_colours)
        | Fs_split_at n ->
            Result.map
              (fun mine ->
                carve mine;
                mine)
              (take root n)
        | Fs_return ->
            (match !children with
            | c :: rest ->
                root := !c @ !root;
                children := rest
            | [] -> ());
            Ok []
      in
      (out, !root :: List.map ( ! ) !children))
    ops

let qcheck_frameseq_model =
  QCheck.Test.make ~name:"frame sequence matches the int-list model" ~count:300
    fs_case_arbitrary (fun case ->
      let show = function
        | Ok fs, pools ->
            Printf.sprintf "ok [%s] / %s"
              (String.concat ";" (List.map string_of_int fs))
              (String.concat " | "
                 (List.map (fun p -> String.concat ";" (List.map string_of_int p)) pools))
        | Error e, _ -> "error " ^ Printexc.to_string e
      in
      let got = fs_run_kernel case and want = fs_run_model case in
      List.iteri
        (fun i (g, w) ->
          if g <> w then
            QCheck.Test.fail_reportf "op %d: kernel %s, model %s" i (show g) (show w))
        (List.combine got want);
      true)

let suite =
  [
    Alcotest.test_case "colour split disjoint" `Quick test_colour_split_disjoint;
    Alcotest.test_case "colour split uneven" `Quick test_colour_split_uneven;
    Alcotest.test_case "colour fraction" `Quick test_colour_fraction;
    Alcotest.test_case "colour of frame" `Quick test_colour_of_frame;
    Alcotest.test_case "colour empty set" `Quick test_colour_empty_set;
    Alcotest.test_case "colour full mask" `Quick test_colour_full_mask;
    Alcotest.test_case "colour of_list duplicates" `Quick
      test_colour_of_list_duplicates;
    Alcotest.test_case "colour disjoint reflexivity" `Quick
      test_colour_disjoint_reflexivity;
    Alcotest.test_case "phys coloured alloc" `Quick test_phys_alloc_coloured;
    Alcotest.test_case "phys free/reuse" `Quick test_phys_free_and_reuse;
    Alcotest.test_case "phys exhaustion" `Quick test_phys_exhaustion;
    Alcotest.test_case "retype takes frames" `Quick test_retype_takes_frames;
    Alcotest.test_case "retype exhaustion" `Quick test_retype_exhaustion;
    Alcotest.test_case "split colours" `Quick test_split_colours;
    Alcotest.test_case "split colours insufficient" `Quick test_split_colours_insufficient;
    Alcotest.test_case "derive strips clone right" `Quick test_cap_derive_strips_clone_right;
    Alcotest.test_case "derive invalid parent" `Quick test_cap_derive_invalid_parent;
    Alcotest.test_case "descendants postorder" `Quick test_cap_descendants_postorder;
    Alcotest.test_case "boot: disjoint colours" `Quick test_boot_protected_disjoint_colours;
    Alcotest.test_case "boot: distinct kernels" `Quick test_boot_protected_distinct_kernels;
    Alcotest.test_case "boot: raw shares kernel" `Quick test_boot_raw_shares_kernel;
    Alcotest.test_case "clone: image coloured" `Quick test_cloned_kernel_is_coloured;
    Alcotest.test_case "clone: idle thread" `Quick test_clone_has_idle_thread;
    Alcotest.test_case "clone: needs right" `Quick test_clone_without_right_fails;
    Alcotest.test_case "clone: costs cycles" `Quick test_clone_cost_positive;
    Alcotest.test_case "destroy: suspends threads" `Quick test_destroy_suspends_threads;
    Alcotest.test_case "destroy: IPI fallback" `Quick
      test_destroy_running_kernel_falls_back_to_initial;
    Alcotest.test_case "destroy: initial rejected" `Quick test_destroy_initial_rejected;
    Alcotest.test_case "revoke master destroys clones" `Quick
      test_revoke_master_destroys_clones;
    Alcotest.test_case "asid freed on destroy" `Quick test_asid_freed_on_destroy;
    Alcotest.test_case "irq set_int conflict" `Quick test_irq_set_int_conflict;
    Alcotest.test_case "irq freed on destroy" `Quick test_irq_freed_on_destroy;
    Alcotest.test_case "irq partition defers" `Quick test_irq_partition_defers_foreign_timer;
    Alcotest.test_case "irq raw delivers" `Quick test_irq_unpartitioned_delivers_anywhere;
    QCheck_alcotest.to_alcotest qcheck_pending_matches_model;
    Alcotest.test_case "sched priority order" `Quick test_sched_priority_order;
    Alcotest.test_case "sched fifo" `Quick test_sched_fifo_within_priority;
    Alcotest.test_case "sched remove" `Quick test_sched_remove;
    QCheck_alcotest.to_alcotest qcheck_sched_always_highest;
    Alcotest.test_case "switch updates current" `Quick test_switch_updates_current;
    Alcotest.test_case "switch flushes on-core" `Quick test_switch_flushes_on_core_state;
    Alcotest.test_case "switch allocation pinned" `Quick
      test_switch_allocation;
    Alcotest.test_case "switch padding constant" `Quick
      test_switch_padding_makes_total_constant;
    Alcotest.test_case "switch no-pad varies" `Quick test_switch_no_pad_varies;
    Alcotest.test_case "switch raw no flush" `Quick test_switch_raw_no_flush;
    Alcotest.test_case "alloc+access" `Quick test_alloc_pages_and_access;
    Alcotest.test_case "alloc pages coloured" `Quick test_alloc_pages_coloured;
    Alcotest.test_case "unmapped faults" `Quick test_unmapped_access_faults;
    Alcotest.test_case "exec alternates" `Quick test_exec_runs_bodies_alternately;
    Alcotest.test_case "exec preempts" `Quick test_exec_preempts_infinite_body;
    Alcotest.test_case "exec slice timing" `Quick test_exec_slice_timing;
    Alcotest.test_case "uctx timer interrupt jump" `Quick
      test_uctx_timer_interrupts_online_time;
    Alcotest.test_case "ipc cost" `Quick test_ipc_cost_positive_and_warm;
    Alcotest.test_case "ipc rendezvous" `Quick test_ipc_rendezvous_blocks_and_wakes;
    Alcotest.test_case "ipc arm colour-ready slower" `Quick
      test_ipc_global_mappings_cheaper_on_arm;
    QCheck_alcotest.to_alcotest qcheck_idle_matches_polling;
    Alcotest.test_case "boot state pinned" `Quick test_boot_state_pinned;
    QCheck_alcotest.to_alcotest qcheck_frameseq_model;
  ]
