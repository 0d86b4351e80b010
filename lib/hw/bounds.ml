(* Analytic worst-case cost bounds for the time-protection switch path.

   Every bound here is derived from the same Platform geometry and
   Machine cost constants the simulator charges, so the numbers cannot
   drift from the model.  The bounds are conservative (an adversary
   cannot make the corresponding operation cost more), but they are not
   wildly loose: a pad sized from them stays within the empirical
   calibration envelope (see EXPERIMENTS.md). *)

let lines_of ~line bytes = (bytes + line - 1) / line
let pages_of bytes = (bytes + Defs.page_size - 1) / Defs.page_size

let cache_lines (g : Cache.geometry) = g.Cache.size / g.Cache.line

(* Flushing a cache costs [inval] per resident line plus [wb] per dirty
   line (Machine.flush_cache_cost).  Worst case: full occupancy, and
   for data caches every line dirty.  Instruction caches are never
   written, so their lines are always clean. *)
let flush_cost ~dirty g =
  let n = cache_lines g in
  (n * Machine.inval_cost_per_line) + if dirty then n * Machine.wb_cost_per_line else 0

type sweep = {
  sw_lines : int;
  sw_pages : int;
  sw_rows : int;
  sw_cycles : int;
}

let sweep ?(fetch = false) ?(coloured = false) (p : Platform.t) ~bytes () =
  let line = p.Platform.line in
  let n = lines_of ~line bytes in
  let pages = pages_of bytes in
  let row_bytes = 1 lsl p.Platform.dram.Dram.row_bits in
  let rows = (bytes + row_bytes - 1) / row_bytes in
  (* Hierarchy lookup latency charged on every line regardless of where
     it is finally served from. *)
  let lat_l2 = match p.Platform.l2 with Some _ -> p.Platform.lat_l2 | None -> 0 in
  let base = n * (p.Platform.lat_l1 + lat_l2 + p.Platform.lat_llc) in
  (* DRAM component of a sequential sweep.  With a stream prefetcher
     the demand stream only stalls for the first line of each DRAM row
     (the prefetcher runs ahead within a row) but pays the prefetch
     issue cost per line; without one, every line takes an open-row
     access plus a row-miss penalty per row crossing. *)
  let dram_all =
    let d = p.Platform.dram in
    if p.Platform.prefetcher_slots > 0 then
      (rows * d.Dram.t_miss) + (n * Machine.prefetch_issue_cost)
    else (n * d.Dram.t_hit) + (rows * (d.Dram.t_miss - d.Dram.t_hit))
  in
  (* Under cache colouring an adversary domain holds at most half the
     colours (with >= 2 domains), so at most half the swept lines can
     have been evicted to DRAM; the rest are LLC hits, whose latency is
     already in [base]. *)
  let dram = if coloured then dram_all / 2 else dram_all in
  (* Worst case every page of the sweep misses the whole TLB hierarchy
     and pays a page-table walk. *)
  let tlb = pages * p.Platform.tlb_walk in
  (* An instruction-side sweep through a chain of jumps mispredicts
     every one of them (the manual-flush property, §4.3). *)
  let fetch_extra = if fetch then n * p.Platform.mispredict_penalty else 0 in
  {
    sw_lines = n;
    sw_pages = pages;
    sw_rows = rows;
    sw_cycles = base + dram + tlb + fetch_extra;
  }

let sweep_cycles ?fetch ?coloured p ~bytes () =
  (sweep ?fetch ?coloured p ~bytes ()).sw_cycles

let l1_flush_hw_bound (p : Platform.t) =
  flush_cost ~dirty:true p.Platform.l1d + flush_cost ~dirty:false p.Platform.l1i

(* x86 manual flush: one load per line of an L1-D-sized buffer, then a
   chain of mispredicted jumps through an L1-I-sized one.  The buffers
   live in the (coloured) kernel image. *)
let l1_flush_manual_bound ?coloured (p : Platform.t) =
  sweep_cycles ?coloured p ~bytes:p.Platform.l1d.Cache.size ()
  + sweep_cycles ~fetch:true ?coloured p ~bytes:p.Platform.l1i.Cache.size ()

let l2_flush_bound (p : Platform.t) =
  match p.Platform.l2 with None -> 0 | Some g -> flush_cost ~dirty:true g

let llc_flush_bound (p : Platform.t) = flush_cost ~dirty:true p.Platform.llc
let tlb_flush_bound (_ : Platform.t) = Machine.tlb_flush_cost
let bp_flush_bound (_ : Platform.t) = Machine.bp_flush_cost

(* One switch-flush step's worst case: the bound of the operation
   Machine.flush_step (or, for the manual L1 flush, the kernel) runs. *)
let flush_step_bound ?coloured p = function
  | Flush.L1_hw -> l1_flush_hw_bound p
  | Flush.L1_manual -> l1_flush_manual_bound ?coloured p
  | Flush.L2 -> l2_flush_bound p
  | Flush.Llc -> llc_flush_bound p
  | Flush.Tlb -> tlb_flush_bound p
  | Flush.Bp -> bp_flush_bound p
  | Flush.Dram_close -> Machine.dram_close_cost

(* A demand access that allocates can evict a dirty victim at every
   cache level it passes through (Machine charges wb_cost_per_line per
   level on eviction).  The flush bounds above charge their own
   writebacks; a sweep of [lines] demand accesses must also budget the
   victims'. *)
let hierarchy_levels (p : Platform.t) =
  2 + match p.Platform.l2 with Some _ -> 1 | None -> 0

let eviction_wb_bound (p : Platform.t) ~lines =
  lines * hierarchy_levels p * Machine.wb_cost_per_line

(* Fixed costs of the kernel lifecycle operations.  This is the single
   table both sides read: Tp_kernel.Domain_switch / Tp_kernel.Clone
   charge these exact constants when executing, and the analytic
   envelopes here and in Tp_analysis.Lint sum the same names — so the
   executed sequence and its certified bound cannot silently drift. *)

let lock_cost = 30
let timer_reprogram_cost = 60
let return_cost = 40

(* Lock acquire + release, timer reprogram, return-from-kernel: the
   unconditional per-switch overhead outside any flush or sweep. *)
let switch_fixed_overhead = (2 * lock_cost) + timer_reprogram_cost + return_cost

(* Inter-processor interrupt round trip: the destroy path stalls both
   the initiating and each remote core for one IPI while remote TLBs
   are shot down. *)
let ipi_cost = 1500

(* Capability/registry bookkeeping charged at the end of a destroy. *)
let destroy_bookkeeping_cost = 400
