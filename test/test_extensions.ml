(* Tests for the paper's §3.3/§6 extension mechanisms: nested
   partitioning, re-partitioning after destruction, shared memory with
   a dedicated colour — plus kernel-layout invariants. *)

open Tp_kernel

let haswell = Tp_hw.Platform.haswell

let boot_protected ?(domains = 2) () =
  Boot.boot ~platform:haswell ~config:(Config.protected_ haswell) ~domains ()

(* ------------------------------------------------------------------ *)
(* Nested partitioning (§3.3) *)

let test_subdivide_creates_nested_domains () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let subs = Boot.subdivide b d0 ~parts:2 ~core:0 in
  Alcotest.(check int) "two sub-domains" 2 (List.length subs);
  match subs with
  | [ a; bb ] ->
      Alcotest.(check bool) "sub-colours disjoint" true
        (Colour.disjoint a.Boot.dom_colours bb.Boot.dom_colours);
      Alcotest.(check bool) "sub-colours within parent" true
        (Colour.union a.Boot.dom_colours bb.Boot.dom_colours
        land lnot d0.Boot.dom_colours
        = 0);
      Alcotest.(check bool) "fresh kernels" true
        (a.Boot.dom_kernel.Types.ki_id <> bb.Boot.dom_kernel.Types.ki_id
        && a.Boot.dom_kernel.Types.ki_id <> d0.Boot.dom_kernel.Types.ki_id);
      (* Sub-kernels cloned from the parent's capability hang under it
         in the CDT: revoking the parent cap destroys them. *)
      Objects.revoke b.Boot.sys ~core:0 d0.Boot.dom_kernel_cap;
      Alcotest.(check bool) "revoke reaps nested kernels" true
        (a.Boot.dom_kernel.Types.ki_state = Types.Ki_destroyed
        && bb.Boot.dom_kernel.Types.ki_state = Types.Ki_destroyed)
  | _ -> Alcotest.fail "expected two"

let test_subdivide_needs_colours () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  (* d0 holds 4 colours on Haswell; asking for 5 parts must fail. *)
  match Boot.subdivide b d0 ~parts:5 ~core:0 with
  | _ -> Alcotest.fail "expected Insufficient_colours"
  | exception Types.Kernel_error Types.Insufficient_colours -> ()

let test_subdivide_needs_clone_right () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let stripped = Capability.derive ~clone_right:false d0.Boot.dom_kernel_cap in
  let weak = { d0 with Boot.dom_kernel_cap = stripped } in
  match Boot.subdivide b weak ~parts:2 ~core:0 with
  | _ -> Alcotest.fail "expected No_clone_right"
  | exception Types.Kernel_error Types.No_clone_right -> ()

(* ------------------------------------------------------------------ *)
(* Re-partitioning (§3.3: "Re-partitioning is possible by ... revoking
   a complete kernel image") *)

let test_repartition_after_destroy () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let free_before = Retype.untyped_free_frames d0.Boot.dom_pool in
  (* Destroy d0's kernel and reclaim its Kernel_Memory by revoking the
     pool: frames flow back and a new kernel can be cloned. *)
  Clone.destroy b.Boot.sys ~core:0 d0.Boot.dom_kernel_cap;
  Objects.revoke b.Boot.sys ~core:0 d0.Boot.dom_pool;
  let free_after = Retype.untyped_free_frames d0.Boot.dom_pool in
  Alcotest.(check bool) "frames reclaimed" true (free_after > free_before);
  let kmem = Retype.retype_kernel_memory d0.Boot.dom_pool ~platform:haswell in
  let cap = Clone.clone b.Boot.sys ~core:0 ~src:b.Boot.master ~kmem in
  Alcotest.(check bool) "new kernel active" true
    ((Clone.the_image cap).Types.ki_state = Types.Ki_active)

let test_kmem_destruction_invalidates_kernel () =
  (* §4.4: "Destroying active Kernel_Memory also invalidates the
     kernel". *)
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let kmem = Retype.retype_kernel_memory d0.Boot.dom_pool ~platform:haswell in
  let kcap = Clone.clone b.Boot.sys ~core:0 ~src:b.Boot.master ~kmem in
  let ki = Clone.the_image kcap in
  Objects.delete b.Boot.sys ~core:0 kmem;
  Alcotest.(check bool) "kernel destroyed with its memory" true
    (ki.Types.ki_state = Types.Ki_destroyed)

let test_delete_derived_cap_keeps_object () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let nf_cap = Retype.retype_notification d0.Boot.dom_pool in
  let copy = Capability.derive nf_cap in
  Objects.delete b.Boot.sys ~core:0 copy;
  Alcotest.(check bool) "original still valid" true (Capability.is_valid nf_cap)

let test_delete_owner_returns_frames () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let before = Retype.untyped_free_frames d0.Boot.dom_pool in
  let nf_cap = Retype.retype_notification d0.Boot.dom_pool in
  Alcotest.(check int) "one frame taken" (before - 1)
    (Retype.untyped_free_frames d0.Boot.dom_pool);
  Objects.delete b.Boot.sys ~core:0 nf_cap;
  Alcotest.(check int) "frame returned" before
    (Retype.untyped_free_frames d0.Boot.dom_pool)

(* ------------------------------------------------------------------ *)
(* Shared memory with a dedicated colour (§6.1) *)

let test_map_shared_visible_to_both () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) and d1 = b.Boot.domains.(1) in
  let va0, va1 = Boot.map_shared b ~from_dom:d0 ~to_dom:d1 ~pages:2 in
  (* Same physical frames behind both mappings. *)
  for i = 0 to 1 do
    let pa0 = System.translate d0.Boot.dom_vspace (va0 + (i * 4096)) in
    let pa1 = System.translate d1.Boot.dom_vspace (va1 + (i * 4096)) in
    Alcotest.(check int) "same frame" pa0 pa1;
    (* The dedicated colour is the provider's. *)
    Alcotest.(check bool) "provider's colour" true
      (Colour.mem d0.Boot.dom_colours
         (Colour.colour_of_frame ~n_colours:8 (pa0 / 4096)))
  done

let test_map_shared_creates_cache_channel () =
  (* The §6.1 caveat made concrete: writes by one domain are visible as
     timing to the other through the shared lines — the kernel only
     guarantees the mapping, determinism is user-level policy. *)
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) and d1 = b.Boot.domains.(1) in
  let va0, va1 = Boot.map_shared b ~from_dom:d0 ~to_dom:d1 ~pages:1 in
  let t0 = Boot.spawn b d0 (fun _ -> ()) in
  let t1 = Boot.spawn b d1 (fun _ -> ()) in
  Sched.remove (System.sched b.Boot.sys) ~core:0 t0;
  Sched.remove (System.sched b.Boot.sys) ~core:0 t1;
  (* Warm d1's TLB entry for the page (another line), then have d0
     touch line 0: d1's subsequent access hits the shared line in
     cache — the cross-domain timing dependence. *)
  ignore
    (System.user_access b.Boot.sys ~core:0 t1 ~vaddr:(va1 + 64)
       ~kind:Tp_hw.Defs.Read);
  ignore (System.user_access b.Boot.sys ~core:0 t0 ~vaddr:va0 ~kind:Tp_hw.Defs.Read);
  let warm = System.user_access b.Boot.sys ~core:0 t1 ~vaddr:va1 ~kind:Tp_hw.Defs.Read in
  Alcotest.(check bool)
    (Printf.sprintf "sharer-warmed line is fast (%d cycles)" warm)
    true (warm <= 16)

(* ------------------------------------------------------------------ *)
(* Layout invariants *)

let test_layout_shared_size () =
  (* §4.1: "total of about 9.5 KiB". *)
  Alcotest.(check bool)
    (Printf.sprintf "shared bytes = %d ~ 9.5KiB" Layout.shared_bytes)
    true
    (Layout.shared_bytes > 9 * 1024 && Layout.shared_bytes < 10 * 1024)

let test_layout_regions_line_disjoint () =
  (* The audit of §4.1: no two shared regions co-reside in a line. *)
  let line = 64 in
  let ranges =
    List.map
      (fun r -> (Layout.shared_region_off r, Layout.shared_region_size r))
      Layout.all_shared_regions
  in
  List.iteri
    (fun i (off_i, size_i) ->
      List.iteri
        (fun j (off_j, size_j) ->
          if i < j then begin
            let last_i = (off_i + size_i - 1) / line in
            let first_j = off_j / line in
            let last_j = (off_j + size_j - 1) / line in
            let first_i = off_i / line in
            Alcotest.(check bool) "no shared cache line" true
              (last_i < first_j || last_j < first_i)
          end)
        ranges)
    ranges

let test_layout_handlers_fit_text () =
  let handlers =
    [
      Layout.entry_stub; Layout.handler_signal; Layout.handler_set_priority;
      Layout.handler_poll; Layout.handler_yield; Layout.handler_ipc;
      Layout.handler_tick; Layout.handler_irq; Layout.handler_clone;
      Layout.handler_destroy;
    ]
  in
  List.iter
    (fun p ->
      let lay = Layout.image_layout p in
      List.iter
        (fun (h : Layout.text_range) ->
          Alcotest.(check bool) "handler inside text" true
            (h.Layout.t_off + h.Layout.t_len <= lay.Layout.text_size))
        handlers)
    Tp_hw.Platform.all

let test_layout_image_frames_cover_layout () =
  List.iter
    (fun p ->
      let lay = Layout.image_layout p in
      Alcotest.(check int) "frames cover image bytes"
        ((lay.Layout.image_bytes + 4095) / 4096)
        (Layout.image_frames p))
    Tp_hw.Platform.all

let test_image_pa_respects_frames () =
  let b = boot_protected () in
  let ki = b.Boot.domains.(0).Boot.dom_kernel in
  let lay = Layout.image_layout haswell in
  for off = 0 to (lay.Layout.image_bytes / 4096) - 1 do
    let pa = System.image_pa ki ~off:(off * 4096) in
    Alcotest.(check int) "offset lands in its frame"
      ki.Types.ki_frames.(off) (pa / 4096)
  done

(* ------------------------------------------------------------------ *)
(* Real page-table walks (§5.3.1's van Schaik claim) *)

let test_leaf_pts_come_from_the_pool () =
  (* "partitioning user space automatically partitions dynamic kernel
     data (and will defeat e.g. page-table side-channel attacks)":
     leaf PTs must carry the owning domain's colours. *)
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  ignore (Boot.alloc_pages b d0 ~pages:8);
  let vs = d0.Boot.dom_vspace in
  Alcotest.(check bool) "a leaf PT exists" true
    (Types.Itbl.length vs.Types.vs_leaf_pts > 0);
  Types.Itbl.iter
    (fun _ frame ->
      Alcotest.(check bool) "leaf PT frame has domain colour" true
        (Colour.mem d0.Boot.dom_colours (Colour.colour_of_frame ~n_colours:8 frame)))
    vs.Types.vs_leaf_pts;
  Alcotest.(check bool) "root PT too" true
    (Colour.mem d0.Boot.dom_colours
       (Colour.colour_of_frame ~n_colours:8 vs.Types.vs_root_pt))

(* [System.user_access] memoises the last leaf table it found per
   vspace.  Pages across three leaf tables, some unmapped and remapped
   to other frames, accessed in an order that alternates between the
   tables: every recorded walk line must equal what a lookup in
   [vs_root_pt]/[vs_leaf_pts] gives. *)
let test_leaf_memo_matches_lookup () =
  let b = boot_protected () in
  let sys = b.Boot.sys in
  let d0 = b.Boot.domains.(0) in
  let vs = d0.Boot.dom_vspace in
  let tcb = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 tcb;
  let take () =
    match Retype.take_frames d0.Boot.dom_pool 1 with
    | [ f ] -> f
    | _ -> assert false
  in
  let map vpn = System.map_page sys vs ~pt_alloc:(Some take) ~vpn ~frame:(take ()) in
  let tables = [ 0x300; 0x301; 0x305 ] in
  let vpns pti = List.init 4 (fun k -> (pti * 512) + (k * 130)) in
  List.iter (fun pti -> List.iter map (vpns pti)) tables;
  (* Interleaved: one page of each table in turn. *)
  let order =
    List.concat (List.init 4 (fun k -> List.map (fun pti -> List.nth (vpns pti) k) tables))
  in
  let line = (System.platform sys).Tp_hw.Platform.line in
  let entry_line frame idx = Phys.frame_addr frame + (idx * 8 / line * line) in
  let got = Tp_hw.Replay.create () and expect = Tp_hw.Replay.create () in
  let access vpn =
    let vaddr = (vpn * Tp_hw.Defs.page_size) + 64 in
    ignore
      (System.user_access ~recorder:got sys ~core:0 tcb ~vaddr
         ~kind:Tp_hw.Defs.Read);
    Tp_hw.Replay.append_access expect ~kind:Tp_hw.Defs.Read ~vaddr
      ~paddr:(Phys.frame_addr (Types.Itbl.find vs.Types.vs_pages vpn) + 64)
      ~root_pa:(entry_line vs.Types.vs_root_pt (vpn lsr 9 land 511))
      ~leaf_pa:(entry_line (Types.Itbl.find vs.Types.vs_leaf_pts (vpn lsr 9)) (vpn land 511))
  in
  List.iter access order;
  (* Unmap every other page and map it again onto a fresh frame. *)
  List.iteri
    (fun i vpn ->
      if i mod 2 = 0 then begin
        Types.Itbl.remove vs.Types.vs_pages vpn;
        map vpn
      end)
    order;
  List.iter access (List.rev order);
  List.iter access order;
  Alcotest.(check int) "three leaf tables" 3 (Types.Itbl.length vs.Types.vs_leaf_pts);
  Alcotest.(check string) "recorded walk lines equal lookups"
    (Tp_hw.Replay.digest expect) (Tp_hw.Replay.digest got)

let test_walk_latency_reflects_pt_cache_state () =
  (* The walk reads real PT lines: evicting them from the caches makes
     the next TLB-missing access measurably slower — the raw material
     of the van Schaik attack. *)
  let b = boot_protected () in
  let sys = b.Boot.sys in
  let m = System.machine sys in
  let d0 = b.Boot.domains.(0) in
  let buf = Boot.alloc_pages b d0 ~pages:4 in
  let tcb = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 tcb;
  let vs = d0.Boot.dom_vspace in
  (* Warm everything, then force a TLB miss with warm PT lines. *)
  ignore (System.user_access sys ~core:0 tcb ~vaddr:buf ~kind:Tp_hw.Defs.Read);
  ignore (Tp_hw.Machine.flush_step m ~core:0 Tp_hw.Flush.Tlb);
  let warm_walk = System.user_access sys ~core:0 tcb ~vaddr:buf ~kind:Tp_hw.Defs.Read in
  (* Now also evict the PT lines before the walk. *)
  ignore (Tp_hw.Machine.flush_step m ~core:0 Tp_hw.Flush.Tlb);
  ignore (Tp_hw.Machine.clflush m ~core:0 ~paddr:(Phys.frame_addr vs.Types.vs_root_pt));
  Types.Itbl.iter
    (fun _ f -> ignore (Tp_hw.Machine.clflush m ~core:0 ~paddr:(Phys.frame_addr f)))
    vs.Types.vs_leaf_pts;
  let cold_walk = System.user_access sys ~core:0 tcb ~vaddr:buf ~kind:Tp_hw.Defs.Read in
  Alcotest.(check bool)
    (Printf.sprintf "cold PT walk slower (%d vs %d)" cold_walk warm_walk)
    true
    (cold_walk > warm_walk + 100)

let test_tlb_hit_avoids_walk () =
  let b = boot_protected () in
  let sys = b.Boot.sys in
  let d0 = b.Boot.domains.(0) in
  let buf = Boot.alloc_pages b d0 ~pages:1 in
  let tcb = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 tcb;
  ignore (System.user_access sys ~core:0 tcb ~vaddr:buf ~kind:Tp_hw.Defs.Read);
  let hit = System.user_access sys ~core:0 tcb ~vaddr:buf ~kind:Tp_hw.Defs.Read in
  Alcotest.(check bool) "TLB+L1 hit is cheap" true (hit <= 10)

(* ------------------------------------------------------------------ *)
(* Multicore execution *)

let test_concurrent_cores_advance () =
  let b = boot_protected () in
  let sys = b.Boot.sys in
  ignore (Boot.spawn b b.Boot.domains.(0) ~core:0 (fun _ -> ()));
  ignore (Boot.spawn b b.Boot.domains.(1) ~core:1 (fun _ -> ()));
  Exec.run_concurrent sys ~cores:[ 0; 1 ] ~slice_cycles:50_000 ~rounds:4 ();
  Alcotest.(check bool) "core 0 advanced" true (System.now sys ~core:0 > 150_000);
  Alcotest.(check bool) "core 1 advanced" true (System.now sys ~core:1 > 150_000)

let test_cosched_one_domain_at_a_time () =
  let b = boot_protected () in
  let sys = b.Boot.sys in
  (* Record, per slice execution, which domain ran; under gang
     scheduling the two domains must never interleave within a round
     pair in a way that overlaps. *)
  let trace = ref [] in
  ignore
    (Boot.spawn b b.Boot.domains.(0) ~core:0 (fun _ -> trace := (0, 0) :: !trace));
  ignore
    (Boot.spawn b b.Boot.domains.(0) ~core:1 (fun _ -> trace := (0, 1) :: !trace));
  ignore
    (Boot.spawn b b.Boot.domains.(1) ~core:0 (fun _ -> trace := (1, 0) :: !trace));
  ignore
    (Boot.spawn b b.Boot.domains.(1) ~core:1 (fun _ -> trace := (1, 1) :: !trace));
  Exec.run_coscheduled sys ~cores:[ 0; 1 ] ~slice_cycles:50_000 ~rounds:4 ();
  (* Each round appended two entries (one per core); they must agree
     on the domain. *)
  let rec rounds = function
    | (d1, _) :: (d2, _) :: rest ->
        Alcotest.(check int) "both cores ran the same domain" d1 d2;
        rounds rest
    | [ _ ] -> Alcotest.fail "odd trace"
    | [] -> ()
  in
  rounds (List.rev !trace);
  Alcotest.(check int) "four rounds, two cores" 8 (List.length !trace)

let test_destroy_during_concurrent_execution () =
  (* §4.4 under real concurrency: destroy a kernel while a core is
     actually executing one of its threads; the IPIs must park that
     core on the initial kernel's idle thread. *)
  let b = boot_protected () in
  let sys = b.Boot.sys in
  let victim_ran = ref 0 in
  ignore
    (Boot.spawn b b.Boot.domains.(0) ~core:1 (fun ctx ->
         incr victim_ran;
         Uctx.idle_rest ctx));
  (* Run core 1 one slice so the domain-0 kernel is genuinely current
     there. *)
  Exec.run_slices sys ~core:1 ~slice_cycles:50_000 ~slices:1 ();
  let pc1 = System.per_core sys 1 in
  Alcotest.(check bool) "domain 0 kernel current on core 1" true
    (pc1.System.cur_kernel.Types.ki_id = b.Boot.domains.(0).Boot.dom_kernel.Types.ki_id);
  (* Destroy it from core 0. *)
  Clone.destroy sys ~core:0 b.Boot.domains.(0).Boot.dom_kernel_cap;
  Alcotest.(check bool) "core 1 parked on initial kernel" true
    pc1.System.cur_kernel.Types.ki_is_initial;
  Alcotest.(check bool) "core 1 runs an idle thread" true
    (match pc1.System.cur_thread with Some t -> t.Types.t_is_idle | None -> false);
  (* The core keeps ticking without user threads. *)
  Exec.run_slices sys ~core:1 ~slice_cycles:50_000 ~slices:2 ();
  Alcotest.(check int) "victim never ran again" 1 !victim_ran

(* ------------------------------------------------------------------ *)
(* Shared-data audit (§4.1) *)

let switch_trace b ~dirty_sender =
  let sys = b.Boot.sys in
  let wl = Boot.spawn b b.Boot.domains.(0) (fun _ -> ()) in
  let idle = Boot.spawn b b.Boot.domains.(1) (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 wl;
  Sched.remove (System.sched sys) ~core:0 idle;
  ignore (Domain_switch.switch sys ~core:0 ~to_:wl);
  if dirty_sender then begin
    let buf = Boot.alloc_pages b b.Boot.domains.(0) ~pages:8 in
    for i = 0 to 511 do
      ignore
        (System.user_access sys ~core:0 wl ~vaddr:(buf + (i * 64))
           ~kind:Tp_hw.Defs.Write)
    done
  end;
  Audit.capture sys (fun () ->
      ignore (Domain_switch.switch sys ~core:0 ~to_:idle))

let test_audit_switch_trace_deterministic () =
  (* The §4.1 audit, mechanised: the shared-data access trace of a
     protected domain switch is identical whatever the outgoing domain
     did — so the residual shared data cannot re-encode sender
     behaviour. *)
  let t1 =
    switch_trace (boot_protected ()) ~dirty_sender:false
  in
  let t2 =
    switch_trace (boot_protected ()) ~dirty_sender:true
  in
  Alcotest.(check bool) "identical shared-data traces" true
    (Audit.equal_traces t1 t2);
  Alcotest.(check bool) "trace non-empty" true (List.length t1 > 0)

let test_audit_prefetch_covers_all_regions () =
  (* Requirement 3's prefetch step must touch every shared region. *)
  let trace = switch_trace (boot_protected ()) ~dirty_sender:false in
  List.iter
    (fun region ->
      Alcotest.(check bool)
        (Audit.region_name region ^ " touched during switch")
        true
        (List.exists (fun e -> e.Audit.region = region) trace))
    Layout.all_shared_regions

let test_audit_syscall_footprints_differ () =
  (* The flip side — and the Figure 3 channel's root cause: different
     syscalls have different shared-data footprints. *)
  let b = boot_protected () in
  let sys = b.Boot.sys in
  let d0 = b.Boot.domains.(0) in
  let nf = Boot.new_notification b d0 in
  let caller = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 caller;
  let helper_cap = Retype.retype_tcb d0.Boot.dom_pool ~core:0 ~prio:50 in
  let helper =
    match helper_cap.Types.target with Types.Obj_tcb t -> t | _ -> assert false
  in
  let trace_of call =
    Audit.capture sys (fun () -> Syscalls.execute sys ~core:0 caller call)
  in
  let signal = trace_of (Syscalls.Signal nf) in
  let setprio = trace_of (Syscalls.Set_priority (helper, 60)) in
  Alcotest.(check bool) "Signal vs SetPriority footprints differ" false
    (Audit.equal_traces signal setprio)

let test_audit_lines_touched_counts () =
  let trace = switch_trace (boot_protected ()) ~dirty_sender:false in
  let n = Audit.lines_touched haswell trace in
  (* The whole shared block is ~9.5 KiB = ~152 lines at 64 B; the
     switch prefetches all of it plus its own bookkeeping. *)
  Alcotest.(check bool) (Printf.sprintf "%d lines ~ whole block" n) true
    (n >= 140 && n <= 170)

(* ------------------------------------------------------------------ *)
(* Syscall semantics *)

let test_signal_wakes_waiter () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let nf = Boot.new_notification b d0 in
  let waiter = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched b.Boot.sys) ~core:0 waiter;
  waiter.Types.t_state <- Types.Ts_blocked_recv;
  nf.Types.nf_waiters <- [ waiter ];
  let caller = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched b.Boot.sys) ~core:0 caller;
  Syscalls.execute b.Boot.sys ~core:0 caller (Syscalls.Signal nf);
  Alcotest.(check bool) "waiter ready" true (waiter.Types.t_state = Types.Ts_ready);
  Alcotest.(check bool) "queued" true
    (Sched.is_queued (System.sched b.Boot.sys) ~core:0 waiter);
  Alcotest.(check int) "word set" 1 nf.Types.nf_word

let test_poll_clears_word () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let nf = Boot.new_notification b d0 in
  nf.Types.nf_word <- 1;
  let caller = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched b.Boot.sys) ~core:0 caller;
  Syscalls.execute b.Boot.sys ~core:0 caller (Syscalls.Poll nf);
  Alcotest.(check int) "word cleared" 0 nf.Types.nf_word

let test_set_priority_requeues () =
  let b = boot_protected () in
  let d0 = b.Boot.domains.(0) in
  let target = Boot.spawn b d0 ~prio:100 (fun _ -> ()) in
  let caller = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched b.Boot.sys) ~core:0 caller;
  Syscalls.execute b.Boot.sys ~core:0 caller (Syscalls.Set_priority (target, 42));
  Alcotest.(check int) "priority changed" 42 target.Types.t_prio;
  Alcotest.(check bool) "still queued at new prio" true
    (Sched.is_queued (System.sched b.Boot.sys) ~core:0 target)

(* 75 % of Haswell's 8 colours gives domains {0,1,2} and {3,4,5}.  A
   sub-pool of the second must still colour frames modulo 8: guessing
   the count from the pool's highest colour (6) hands sub-domain {3}
   frames of its sibling's colour 5. *)
let test_subdivide_partial_colour_boot () =
  let b =
    Boot.boot ~colour_percent:75 ~platform:haswell
      ~config:(Config.protected_ haswell) ()
  in
  let n_colours = System.n_colours b.Boot.sys in
  let d1 = b.Boot.domains.(1) in
  Alcotest.(check (list int)) "domain 1 colours" [ 3; 4; 5 ]
    (Colour.to_list d1.Boot.dom_colours);
  let subs = Boot.subdivide b d1 ~parts:3 ~core:0 in
  Alcotest.(check int) "three sub-domains" 3 (List.length subs);
  List.iter
    (fun s ->
      let free = (Retype.the_untyped s.Boot.dom_pool).Types.u_free in
      let foreign =
        Frameseq.fold_left
          (fun n f ->
            if Colour.mem s.Boot.dom_colours (Colour.colour_of_frame ~n_colours f)
            then n
            else n + 1)
          0 free
      in
      Alcotest.(check int)
        (Format.asprintf "sub-domain %a foreign frames" Colour.pp s.Boot.dom_colours)
        0 foreign;
      Alcotest.(check bool) "sub-pool not empty" true (Frameseq.length free > 0))
    subs

let test_exec_respects_priority () =
  let b = boot_protected () in
  let order = ref [] in
  let lo = Boot.spawn b b.Boot.domains.(0) ~prio:10 (fun _ -> order := `Lo :: !order) in
  let hi = Boot.spawn b b.Boot.domains.(1) ~prio:200 (fun _ -> order := `Hi :: !order) in
  ignore lo;
  ignore hi;
  Exec.run_slices b.Boot.sys ~core:0 ~slice_cycles:100_000 ~slices:1 ();
  Alcotest.(check bool) "high priority ran first" true (!order = [ `Hi ])

let suite =
  [
    Alcotest.test_case "subdivide: nested domains" `Quick
      test_subdivide_creates_nested_domains;
    Alcotest.test_case "subdivide: needs colours" `Quick test_subdivide_needs_colours;
    Alcotest.test_case "subdivide: needs clone right" `Quick
      test_subdivide_needs_clone_right;
    Alcotest.test_case "repartition after destroy" `Quick
      test_repartition_after_destroy;
    Alcotest.test_case "kmem destruction invalidates kernel" `Quick
      test_kmem_destruction_invalidates_kernel;
    Alcotest.test_case "derived cap delete keeps object" `Quick
      test_delete_derived_cap_keeps_object;
    Alcotest.test_case "owner delete returns frames" `Quick
      test_delete_owner_returns_frames;
    Alcotest.test_case "map_shared both see frames" `Quick
      test_map_shared_visible_to_both;
    Alcotest.test_case "map_shared timing channel caveat" `Quick
      test_map_shared_creates_cache_channel;
    Alcotest.test_case "layout shared ~9.5KiB" `Quick test_layout_shared_size;
    Alcotest.test_case "layout regions line-disjoint" `Quick
      test_layout_regions_line_disjoint;
    Alcotest.test_case "layout handlers fit text" `Quick test_layout_handlers_fit_text;
    Alcotest.test_case "layout frames cover image" `Quick
      test_layout_image_frames_cover_layout;
    Alcotest.test_case "image_pa frame mapping" `Quick test_image_pa_respects_frames;
    Alcotest.test_case "PT: leaf tables coloured" `Quick
      test_leaf_pts_come_from_the_pool;
    Alcotest.test_case "PT: leaf memo matches a lookup" `Quick
      test_leaf_memo_matches_lookup;
    Alcotest.test_case "PT: walk reads real lines" `Quick
      test_walk_latency_reflects_pt_cache_state;
    Alcotest.test_case "PT: TLB hit avoids walk" `Quick test_tlb_hit_avoids_walk;
    Alcotest.test_case "multicore: concurrent advance" `Quick
      test_concurrent_cores_advance;
    Alcotest.test_case "multicore: cosched gangs" `Quick
      test_cosched_one_domain_at_a_time;
    Alcotest.test_case "multicore: destroy running kernel" `Quick
      test_destroy_during_concurrent_execution;
    Alcotest.test_case "audit: switch trace deterministic" `Quick
      test_audit_switch_trace_deterministic;
    Alcotest.test_case "audit: prefetch covers regions" `Quick
      test_audit_prefetch_covers_all_regions;
    Alcotest.test_case "audit: syscall footprints differ" `Quick
      test_audit_syscall_footprints_differ;
    Alcotest.test_case "audit: lines touched" `Quick test_audit_lines_touched_counts;
    Alcotest.test_case "signal wakes waiter" `Quick test_signal_wakes_waiter;
    Alcotest.test_case "poll clears word" `Quick test_poll_clears_word;
    Alcotest.test_case "set_priority requeues" `Quick test_set_priority_requeues;
    Alcotest.test_case "exec respects priority" `Quick test_exec_respects_priority;
    Alcotest.test_case "subdivide keeps colours on a partial-colour boot" `Quick
      test_subdivide_partial_colour_boot;
  ]
