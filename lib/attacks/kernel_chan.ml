open Tp_kernel

let symbols = 4
let syscalls_per_slice = 32

let page = Tp_hw.Defs.page_size

let slice_cycles p =
  Tp_hw.Platform.us_to_cycles p
    (match p.Tp_hw.Platform.arch with
    | Tp_hw.Platform.X86 -> 1_000.0
    | Tp_hw.Platform.Arm -> 10_000.0)

let prepare b =
  let sys = b.Boot.sys in
  let p = System.platform sys in
  (* The receiver probes the physically-indexed cache the kernel's
     footprint lands in: the private L2 on x86, the shared L2/LLC on
     Arm.  A buffer of that cache's size from the receiver's pool
     covers exactly the receiver's reachable partition. *)
  let g =
    match p.Tp_hw.Platform.l2 with
    | Some g -> g
    | None -> p.Tp_hw.Platform.llc
  in
  let line = g.Tp_hw.Cache.line in
  (* The receiver's reachable partition is (its colours / all colours)
     of the cache; a buffer of exactly that size fills each reachable
     set [ways] times without self-eviction. *)
  let n_colours = System.n_colours sys in
  let share = Colour.count b.Boot.domains.(1).Boot.dom_colours in
  let pages = g.Tp_hw.Cache.size / page * share / n_colours in
  let rbuf = Boot.alloc_pages b b.Boot.domains.(1) ~pages in
  (* A second buffer covering the same sets, used to evict foreign
     lines between measurements (see the receiver below). *)
  let evict_buf = Boot.alloc_pages b b.Boot.domains.(1) ~pages in
  let total_lines = pages * page / line in
  (* Probe latency above this means the line left the probed cache:
     between a (TLB-warm) hit in that cache and the next level down. *)
  let threshold =
    match p.Tp_hw.Platform.l2 with
    | Some _ ->
        p.Tp_hw.Platform.lat_l1 + p.Tp_hw.Platform.lat_l2
        + (p.Tp_hw.Platform.lat_llc / 2)
    | None ->
        p.Tp_hw.Platform.lat_l1 + p.Tp_hw.Platform.lat_llc
        + p.Tp_hw.Platform.tlb_walk
        + (p.Tp_hw.Platform.dram.Tp_hw.Dram.t_hit / 2)
  in
  (* Sender-side kernel objects: a notification to Signal/Poll and a
     dormant helper thread to SetPriority. *)
  let nf = Boot.new_notification b b.Boot.domains.(0) in
  let helper_cap = Retype.retype_tcb b.Boot.domains.(0).Boot.dom_pool ~core:0 ~prio:50 in
  let helper =
    match helper_cap.Types.target with Types.Obj_tcb t -> t | _ -> assert false
  in
  (* The Trojan's own program code: an L1-I-sized footprint it executes
     every slice.  This is what any real sender looks like, and it is
     load-bearing: without it the kernel handlers' text would stay
     resident in the (never-flushed) L1-I across slices and only the
     first syscall of the run would reach the probed cache. *)
  let code_pages = p.Tp_hw.Platform.l1i.Tp_hw.Cache.size / page in
  let code_buf = Boot.alloc_pages b b.Boot.domains.(0) ~pages:code_pages in
  let code_lines = code_pages * page / line in
  let flip = ref 0 in
  let sender ctx sym =
    for _ = 1 to syscalls_per_slice do
      match sym with
      | 0 -> Uctx.syscall ctx (Syscalls.Signal nf)
      | 1 ->
          flip := 1 - !flip;
          Uctx.syscall ctx (Syscalls.Set_priority (helper, 50 + !flip))
      | 2 -> Uctx.syscall ctx (Syscalls.Poll nf)
      | _ -> Uctx.compute ctx 50
    done;
    for i = 0 to code_lines - 1 do
      Uctx.fetch ctx (code_buf + (i * line))
    done;
    Uctx.idle_rest ctx
  in
  (* Three-pass receiver, the standard way to keep a prime&probe
     channel armed under LRU and a stream prefetcher:
     1. measure: a pass over the probe buffer in a {e permuted} order
       (Mastik chases a permuted pointer chain for the same reason —
        a sequential probe trains the prefetcher, which then hides the
        very misses being measured).  Because the buffer was last
        primed in the reverse permutation, one foreign insertion costs
        exactly one measured miss (no LRU cascade);
     2. evict: a pass over a second same-set buffer throws the foreign
        lines out, so the sender's next syscalls must re-insert them
        (otherwise resident kernel lines would only signal once);
     3. re-prime: reverse-permutation pass restoring the probe buffer. *)
  let rec gcd a bb = if bb = 0 then a else gcd bb (a mod bb) in
  (* Any stride coprime with the line count gives a full cycle with
     non-unit per-page deltas, which no stream tracker locks onto. *)
  let stride =
    let rec pick s = if gcd s total_lines = 1 then s else pick (s + 2) in
    pick 37
  in
  (* The permuted index [i * stride mod total_lines] is stepped by
     add-and-wrap: [p] is the current line's byte offset, [step] the
     stride's, both below [span]. *)
  let span = total_lines * line in
  let step = stride mod total_lines * line in
  let receiver ctx =
    let misses = ref 0 in
    let p = ref 0 in
    for _ = 1 to total_lines do
      let t0 = Uctx.now ctx in
      Uctx.read ctx (rbuf + !p);
      if Uctx.now ctx - t0 > threshold then incr misses;
      p := !p + step;
      if !p >= span then p := !p - span
    done;
    for _ = 1 to total_lines do
      Uctx.read ctx (evict_buf + !p);
      p := !p + step;
      if !p >= span then p := !p - span
    done;
    (* After 2 * total_lines steps [p] is back at 0; one step back is
       the permutation's last line, where the reverse pass starts. *)
    for _ = 1 to total_lines do
      p := !p - step;
      if !p < 0 then p := !p + span;
      Uctx.read ctx (rbuf + !p)
    done;
    Some (float_of_int !misses)
  in
  (sender, receiver)
