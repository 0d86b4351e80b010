(* Microbenchmarks (bechamel): host ns/op of the operations beneath
   every experiment.

   The per-access path — Cache.access_*fast, Tlb.access,
   Prefetcher.on_access, Machine.access and, above it, a live
   Uctx.read — dominates every experiment's runtime, so this suite pins
   its cost: run it before and after touching lib/hw to see what a
   change does to simulator throughput.  The working set alternates between an
   L1-resident sweep (hit path) and a strided sweep larger than the
   cache (miss/evict path), with counters both off and on (the off case
   must stay cheap: the hot path hoists the enabled check).  Above the
   hot path sit the kernel's IPC fastpath and the channel analysis
   every trial ends in: MI estimation, the shuffle test and KDE.

   Before the rows, a replay-sweep gate times the record-once /
   replay-many path the sweep is built on, and exits 1 if replay stops
   being bit-identical to live execution or loses its speedup.  It
   prints every leg pair's ratio beside the median, so its margin over
   the floor is visible.

   Usage: micro.exe  (no arguments; haswell geometry) *)

open Bechamel
open Toolkit

let p = Tp_hw.Platform.haswell

let make_cache () = Tp_hw.Cache.create ~name:"bench" p.Tp_hw.Platform.l1d

let bench_cache_hit =
  let c = make_cache () in
  let pos = ref 0 in
  (* 16 KiB < 32 KiB L1: steady-state all hits. *)
  Test.make ~name:"cache.access_fast hit"
    (Staged.stage (fun () ->
         pos := (!pos + 64) land 0x3FFF;
         ignore (Tp_hw.Cache.access_fast c ~vaddr:!pos ~paddr:!pos ~write:false)))

let bench_cache_miss =
  let c = make_cache () in
  let pos = ref 0 in
  (* 4 MiB stride-64 sweep >> 32 KiB L1: steady-state all misses. *)
  Test.make ~name:"cache.access_fast miss+evict"
    (Staged.stage (fun () ->
         pos := (!pos + 64) land 0x3FFFFF;
         ignore (Tp_hw.Cache.access_fast c ~vaddr:!pos ~paddr:!pos ~write:true)))

let bench_cache_masked =
  let c = make_cache () in
  let pos = ref 0 in
  Test.make ~name:"cache.access_masked_fast (CAT mask)"
    (Staged.stage (fun () ->
         pos := (!pos + 64) land 0x3FFFFF;
         ignore
           (Tp_hw.Cache.access_masked_fast c ~alloc_ways:0x3 ~vaddr:!pos
              ~paddr:!pos ~write:false)))

let bench_tlb =
  let t = Tp_hw.Tlb.create ~name:"bench" { Tp_hw.Tlb.entries = 64; ways = 4 } in
  let vpn = ref 0 in
  Test.make ~name:"tlb.access"
    (Staged.stage (fun () ->
         vpn := (!vpn + 1) land 0x7F;
         ignore (Tp_hw.Tlb.access t ~asid:1 ~vpn:!vpn ~global:false)))

(* The stream prefetcher's notification on every L1 miss, haswell
   tracker table: a sweep over 64 pages, one line at a time, so the
   trackers train, prefetch and get replaced. *)
let bench_prefetcher =
  let pf =
    Tp_hw.Prefetcher.create ~name:"bench" ~slots:p.Tp_hw.Platform.prefetcher_slots
      ~degree:p.Tp_hw.Platform.prefetcher_degree ~line:p.Tp_hw.Platform.line ()
  in
  let pos = ref 0 in
  Test.make ~name:"prefetcher.on_access"
    (Staged.stage (fun () ->
         pos := (!pos + 64) land 0x3FFFF;
         ignore (Tp_hw.Prefetcher.on_access pf ~paddr:!pos)))

let bench_machine ~counters =
  let m = Tp_hw.Machine.create p in
  let pos = ref 0 in
  Test.make
    ~name:
      (Printf.sprintf "machine.access hit (counters %s)"
         (if counters then "on" else "off"))
    (Staged.stage (fun () ->
         Tp_obs.Ctl.set_counters counters;
         pos := (!pos + 64) land 0x3FFF;
         ignore
           (Tp_hw.Machine.access m ~core:0 ~asid:1 ~vaddr:!pos ~paddr:!pos
              ~kind:Tp_hw.Defs.Read ())))

(* One live [Uctx.read] on the kernel channel receiver's pattern,
   haswell raw: the receiver's three passes over L2-sized buffers
   (probe in a stride-permuted order, evict, re-prime in reverse), so
   L1 misses, L2 hits and misses and the IRQ poll after every access
   are all in the figure.  The layer above [machine.access]: the
   difference is the kernel's translation, walk lines and poll. *)
let bench_uctx_read =
  let open Tp_kernel in
  let b = Boot.boot ~platform:p ~config:Config.raw ~domains:2 () in
  let sys = b.Boot.sys in
  let d1 = b.Boot.domains.(1) in
  let g = Option.get p.Tp_hw.Platform.l2 in
  let line = g.Tp_hw.Cache.line in
  let pages = g.Tp_hw.Cache.size / Tp_hw.Defs.page_size in
  let rbuf = Boot.alloc_pages b d1 ~pages in
  let evict_buf = Boot.alloc_pages b d1 ~pages in
  let tcb = Boot.spawn b d1 (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 tcb;
  let ctx = Uctx.make sys ~core:0 tcb ~slice_end:max_int in
  let lines = pages * Tp_hw.Defs.page_size / line in
  let perm i = i * 37 mod lines in
  let k = ref 0 in
  Test.make ~name:"uctx.read (kernel-receiver sweep)"
    (Staged.stage (fun () ->
         let i = !k mod lines in
         (match !k / lines mod 3 with
         | 0 -> Uctx.read ctx (rbuf + (perm i * line))
         | 1 -> Uctx.read ctx (evict_buf + (perm i * line))
         | _ -> Uctx.read ctx (rbuf + (perm (lines - 1 - i) * line)));
         incr k))

(* A whole haswell machine: allocating and initialising every
   component's state, the fixed cost each boot pays. *)
let bench_create =
  Test.make ~name:"machine.create"
    (Staged.stage (fun () -> ignore (Tp_hw.Machine.create p)))

let bench_snapshot =
  let m = Tp_hw.Machine.create p in
  Test.make ~name:"machine.snapshot"
    (Staged.stage (fun () -> ignore (Tp_hw.Machine.snapshot m)))

let bench_restore =
  let m = Tp_hw.Machine.create p in
  let snap = Tp_hw.Machine.snapshot m in
  Test.make ~name:"machine.restore"
    (Staged.stage (fun () -> Tp_hw.Machine.restore m snap))

(* The full-flush switch's wbinvd, [Machine.flush_step Llc], which
   clears what was allocated since the previous flush: on an empty
   machine (nothing to clear), and on the state one kernel-channel
   receiver pass leaves (its probe and evict buffers, haswell
   full-flush).  The second needs the pass re-run before every flush,
   which bechamel cannot keep out of the timing, so its row is the
   median of [flush_samples] individually timed flushes. *)
let bench_flush_llc_empty =
  let m = Tp_hw.Machine.create p in
  Test.make ~name:"machine.flush_step Llc (empty machine)"
    (Staged.stage (fun () ->
         ignore (Tp_hw.Machine.flush_step m ~core:0 Tp_hw.Flush.Llc)))

let flush_samples = 30

let flush_llc_after_receiver_ns () =
  let open Tp_kernel in
  let b = Boot.boot ~platform:p ~config:(Config.full_flush p) ~domains:2 () in
  let _sender, receiver = Tp_attacks.Kernel_chan.prepare b in
  let sys = b.Boot.sys in
  let tcb = Boot.spawn b b.Boot.domains.(1) (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 tcb;
  let ctx = Uctx.make sys ~core:0 tcb ~slice_end:max_int in
  let m = System.machine sys in
  let sample () =
    ignore (receiver ctx);
    let t0 = Unix.gettimeofday () in
    ignore (Tp_hw.Machine.flush_step m ~core:0 Tp_hw.Flush.Llc);
    Unix.gettimeofday () -. t0
  in
  ignore (sample ());
  1e9 *. Tp_util.Stats.median (Array.init flush_samples (fun _ -> sample ()))

(* Cost of one replayed op, amortised over a 64-access stream: the
   per-op figure the sweep's replay-throughput floor rests on. *)
let replay_ops = 64

let bench_replay_step =
  let m = Tp_hw.Machine.create p in
  let r = Tp_hw.Replay.create () in
  for i = 0 to replay_ops - 1 do
    Tp_hw.Replay.append_access r ~kind:Tp_hw.Defs.Read
      ~vaddr:(i * 64 land 0x3FFF)
      ~paddr:(i * 64 land 0x3FFF)
      ~root_pa:0 ~leaf_pa:(-1)
  done;
  Tp_hw.Replay.append_idle r;
  Test.make ~name:(Printf.sprintf "replay.step (x%d)" replay_ops)
    (Staged.stage (fun () ->
         ignore
           (Tp_hw.Replay.replay m ~core:0 ~asid:1 ~llc_ways:(lnot 0)
              ~until:max_int r)))

(* One 1 ms slice idled out with no timer armed: the cost of
   Uctx.idle_rest itself, which jumps from one deliverable interrupt
   to the next instead of polling every 1000 cycles. *)
let bench_idle_slice =
  let open Tp_kernel in
  let b = Boot.boot ~platform:p ~config:Config.raw ~domains:1 () in
  let sys = b.Boot.sys in
  let tcb = Option.get (System.initial_kernel sys).Types.ki_idle in
  let slice = Tp_hw.Platform.us_to_cycles p 1000.0 in
  Test.make ~name:"uctx.idle_rest (1 ms slice)"
    (Staged.stage (fun () ->
         let slice_end = System.now sys ~core:0 + slice in
         try Uctx.idle_rest (Uctx.make sys ~core:0 tcb ~slice_end)
         with Uctx.Preempted -> ()))

(* One-way IPC between two threads of one domain on the protected
   system, alternating direction. *)
let bench_ipc =
  let open Tp_kernel in
  let b = Boot.boot ~platform:p ~config:(Config.protected_ p) ~domains:2 () in
  let sys = b.Boot.sys in
  let d0 = b.Boot.domains.(0) in
  let ep = Boot.new_endpoint b d0 in
  let ta = Boot.spawn b d0 (fun _ -> ()) in
  let tb = Boot.spawn b d0 (fun _ -> ()) in
  Sched.remove (System.sched sys) ~core:0 ta;
  Sched.remove (System.sched sys) ~core:0 tb;
  let dir = ref false in
  Test.make ~name:"IPC one-way fastpath"
    (Staged.stage (fun () ->
         dir := not !dir;
         let from, to_ = if !dir then (ta, tb) else (tb, ta) in
         ignore (Ipc.one_way sys ~core:0 ~ep ~from ~to_)))

let rng = Tp_util.Rng.create ~seed:7

let bench_mi =
  let samples =
    {
      Tp_channel.Mi.input = Array.init 512 (fun i -> i land 3);
      output =
        Array.init 512 (fun i ->
            float_of_int (i land 3) +. Tp_util.Rng.float rng 1.0);
    }
  in
  Test.make ~name:"MI estimate (512 samples, 4 symbols)"
    (Staged.stage (fun () -> ignore (Tp_channel.Mi.estimate samples)))

(* The sweep-wide cell shape: 40 samples over 16 symbols, so most
   groups hold two or three samples. *)
let bench_leakage =
  let samples =
    {
      Tp_channel.Mi.input = Array.init 40 (fun _ -> Tp_util.Rng.int rng 16);
      output =
        Array.init 40 (fun _ ->
            Float.round (Tp_util.Rng.gaussian rng ~mu:300.0 ~sigma:8.0));
    }
  in
  Test.make ~name:"Leakage test (40 samples, 16 symbols)"
    (Staged.stage (fun () ->
         ignore
           (Tp_channel.Leakage.test ~rng:(Tp_util.Rng.create ~seed:11)
              samples)))

let bench_kde =
  let xs = Array.init 1000 (fun i -> float_of_int (i mod 97)) in
  Test.make ~name:"KDE (1000 samples, 512-point grid)"
    (Staged.stage (fun () ->
         ignore
           (Tp_channel.Kde.estimate
              { Tp_channel.Kde.lo = 0.0; hi = 100.0; points = 512 }
              xs)))

(* ---- the replay-sweep gate ---------------------------------------- *)

(* Victim-execution-shaped measurement of the record-once/replay-many
   hot path, TLB channel on haswell raw: record one sender op stream
   per symbol, snapshot the machine, then drive the same schedule of
   sender slices from the same restored state, alternately live (the
   body re-executes, then idles to the slice boundary) and replayed
   (Tp_hw.Replay re-executes the ops).  Both legs idle through the same
   event-driven path, so the ratio measures what replay saves on the
   body itself.  Every leg's final machine-state digest must equal the
   first live leg's — a speedup that computes something different is a
   failure — and the median of the per-pair live/replay ratios must
   clear the floor. *)
let replay_floor = 1.5

(* Alternating live/replay leg pairs: the median ratio rides out a
   noisy leg on a shared host. *)
let replay_pairs = 5

(* Fixed, so the digests stay reproducible; large enough that one leg
   is not host-timer noise. *)
let replay_rounds = 200

let replay_gate () =
  let open Tp_kernel in
  let b = Boot.boot ~platform:p ~config:Config.raw ~domains:2 () in
  let chan = Tp_attacks.Cache_channels.tlb in
  let sender, _receiver = chan.Tp_attacks.Cache_channels.prepare b in
  let symbols = chan.Tp_attacks.Cache_channels.symbols in
  let slice_cycles =
    (Tp_attacks.Harness.default_spec p).Tp_attacks.Harness.slice_cycles
  in
  let sys = b.Boot.sys in
  let m = System.machine sys in
  let streams = Array.init symbols (fun _ -> Tp_hw.Replay.create ()) in
  let mode = ref `Nop in
  let body ctx =
    match !mode with
    | `Nop -> ()
    | `Record s ->
        Uctx.set_recorder ctx (Some streams.(s));
        sender ctx s
    | `Live s -> sender ctx s
    | `Replay s ->
        if not (Uctx.replay ctx streams.(s)) then
          failwith "replay gate: replay refused a complete stream"
  in
  ignore (Boot.spawn b b.Boot.domains.(0) body);
  let slice md =
    mode := md;
    Exec.run_slices sys ~core:0 ~slice_cycles ~slices:1 ()
  in
  for s = 0 to symbols - 1 do
    slice (`Record s)
  done;
  if not (Array.for_all Tp_hw.Replay.complete streams) then
    failwith "replay gate: recording came back incomplete";
  let snap = Tp_hw.Machine.snapshot m in
  let leg md =
    Tp_hw.Machine.restore m snap;
    let t0 = Unix.gettimeofday () in
    for i = 0 to (replay_rounds * symbols) - 1 do
      slice (md (i mod symbols))
    done;
    (Tp_hw.Machine.state_digest m, Unix.gettimeofday () -. t0)
  in
  let pairs =
    List.init replay_pairs (fun _ ->
        let live = leg (fun s -> `Live s) in
        (live, leg (fun s -> `Replay s)))
  in
  let d_ref = fst (fst (List.hd pairs)) in
  let median f = Tp_util.Stats.median (Array.of_list (List.map f pairs)) in
  let ratio = median (fun ((_, wl), (_, wr)) -> wl /. wr) in
  let identical =
    List.for_all (fun ((dl, _), (dr, _)) -> dl = d_ref && dr = d_ref) pairs
  in
  Printf.printf
    "replay sweep (tlb, haswell raw, %d rounds, %d leg pairs): live %.3f s, \
     replay %.3f s, median %.2fx (floor %.1fx; pairs %s), %s\n%!"
    replay_rounds replay_pairs
    (median (fun ((_, w), _) -> w))
    (median (fun (_, (_, w)) -> w))
    ratio replay_floor
    (String.concat " "
       (List.map
          (fun ((_, wl), (_, wr)) -> Printf.sprintf "%.2fx" (wl /. wr))
          pairs))
    (if identical then "bit-identical" else "DIGEST MISMATCH");
  if not identical then
    prerr_endline "micro: FAIL: replayed machine state differs from live";
  if ratio < replay_floor then
    Printf.eprintf "micro: FAIL: replay speedup %.2fx below the %.1fx floor\n"
      ratio replay_floor;
  if (not identical) || ratio < replay_floor then exit 1

let () =
  replay_gate ();
  let tests =
    [
      bench_cache_hit;
      bench_cache_miss;
      bench_cache_masked;
      bench_tlb;
      bench_prefetcher;
      bench_machine ~counters:false;
      bench_machine ~counters:true;
      bench_uctx_read;
      bench_create;
      bench_snapshot;
      bench_restore;
      bench_flush_llc_empty;
      bench_replay_step;
      bench_idle_slice;
      bench_ipc;
      bench_mi;
      bench_leakage;
      bench_kde;
    ]
  in
  (* No forced GC between samples: stabilisation inflates ns-scale
     rows many times over. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second 0.5) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let table =
    Tp_util.Table.create ~title:"Simulator operation costs"
      ~headers:[ "operation"; "ns/op" ]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (v :: _) -> Printf.sprintf "%.1f" v
            | _ -> "n/a"
          in
          Tp_util.Table.add_row table [ Test.Elt.name elt; ns ])
        (Test.elements test))
    tests;
  Tp_obs.Ctl.set_counters false;
  Tp_util.Table.add_row table
    [
      Printf.sprintf
        "machine.flush_step Llc (after a kernel-receiver pass, median of %d)"
        flush_samples;
      Printf.sprintf "%.1f" (flush_llc_after_receiver_ns ());
    ];
  Tp_util.Table.print table
