type core_state = {
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t option;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  l2tlb : Tlb.t;
  btb : Btb.t;
  bhb : Bhb.t;
  prefetcher : Prefetcher.t option;
  mutable cycles : int;
  (* Cycles the last TLB walk already charged to [cycles] itself, so
     [access] can report a total latency without double-charging and
     without boxing a result tuple on the per-access path. *)
  mutable walk_charged : int;
  (* Core-level performance counters (observability only; the model
     never reads them back, see Tp_obs.Ctl). *)
  st : Tp_obs.Counter.set;
  st_accesses : Tp_obs.Counter.t;
  st_l2tlb_hits : Tp_obs.Counter.t;
  st_tlb_walks : Tp_obs.Counter.t;
  st_walk_cycles : Tp_obs.Counter.t;
  st_clflushes : Tp_obs.Counter.t;
  st_prefetch_lines : Tp_obs.Counter.t;
  st_flush_ops : Tp_obs.Counter.t;
  st_flush_cycles : Tp_obs.Counter.t;
}

type t = {
  platform : Platform.t;
  cores : core_state array;
  llc : Cache.t;
  dram : Dram.t;
  bus : Interconnect.t;
}

(* Flush cost model, calibrated so the Table 2 shapes hold: invalidating
   a line costs a few cycles of tag-walk, writing back a dirty line a
   burst-amortised store.  See EXPERIMENTS.md for the calibration. *)
let inval_cost_per_line = 5
let wb_cost_per_line = 10
let tlb_flush_cost = 200
let bp_flush_cost = 400
let dram_close_cost = 100
let l2_tlb_hit_extra = 7
let prefetch_issue_cost = 1

let create platform =
  let open Platform in
  let mk_core i =
    let n fmt = Printf.sprintf "c%d.%s" i fmt in
    let st = Tp_obs.Counter.make_set (n "core") in
    let st_accesses = Tp_obs.Counter.counter st "accesses" in
    let st_l2tlb_hits = Tp_obs.Counter.counter st "l2tlb_hits" in
    let st_tlb_walks = Tp_obs.Counter.counter st "tlb_walks" in
    let st_walk_cycles = Tp_obs.Counter.counter st "walk_cycles" in
    let st_clflushes = Tp_obs.Counter.counter st "clflushes" in
    let st_prefetch_lines = Tp_obs.Counter.counter st "prefetch_lines" in
    let st_flush_ops = Tp_obs.Counter.counter st "flush_ops" in
    let st_flush_cycles = Tp_obs.Counter.counter st "flush_cycles" in
    {
      l1d = Cache.create ~name:(n "l1d") platform.l1d;
      l1i = Cache.create ~name:(n "l1i") platform.l1i;
      l2 = Option.map (Cache.create ~name:(n "l2")) platform.l2;
      itlb = Tlb.create ~name:(n "itlb") platform.itlb;
      dtlb = Tlb.create ~name:(n "dtlb") platform.dtlb;
      l2tlb = Tlb.create ~name:(n "l2tlb") platform.l2tlb;
      btb = Btb.create ~name:(n "btb") platform.btb;
      bhb = Bhb.create ~name:(n "bhb") platform.bhb;
      prefetcher =
        (if platform.prefetcher_slots > 0 then
           Some
             (Prefetcher.create ~name:(n "prefetcher")
                ~slots:platform.prefetcher_slots
                ~degree:platform.prefetcher_degree ())
         else None);
      cycles = 0;
      walk_charged = 0;
      st;
      st_accesses;
      st_l2tlb_hits;
      st_tlb_walks;
      st_walk_cycles;
      st_clflushes;
      st_prefetch_lines;
      st_flush_ops;
      st_flush_cycles;
    }
  in
  let t =
    {
      platform;
      cores = Array.init platform.cores mk_core;
      llc = Cache.create ~name:"llc" platform.llc;
      dram = Dram.create ~name:"dram" platform.dram;
      (* Memory-bus service rate scaled to the platform: 1.3x the rate of
         a single latency-bound DRAM stream, so one stream fits and two
         concurrent ones contend. *)
      bus =
        (let stream_latency =
           platform.lat_l1 + platform.lat_l2 + platform.lat_llc
           + platform.dram.Dram.t_hit
         in
         Interconnect.create ~cores:platform.cores
           ~window:(10 * stream_latency) ~slots_per_window:13 ());
    }
  in
  (* Publish this machine's counter sets; a later machine with the same
     topology replaces them, so the registry always describes the most
     recent boot (what `tpsim stats` dumps). *)
  Array.iter
    (fun c ->
      Tp_obs.Counter.register c.st;
      Tp_obs.Counter.register (Cache.counters c.l1d);
      Tp_obs.Counter.register (Cache.counters c.l1i);
      (match c.l2 with
      | Some l2 -> Tp_obs.Counter.register (Cache.counters l2)
      | None -> ());
      Tp_obs.Counter.register (Tlb.counters c.itlb);
      Tp_obs.Counter.register (Tlb.counters c.dtlb);
      Tp_obs.Counter.register (Tlb.counters c.l2tlb);
      Tp_obs.Counter.register (Btb.counters c.btb);
      Tp_obs.Counter.register (Bhb.counters c.bhb);
      match c.prefetcher with
      | Some pf -> Tp_obs.Counter.register (Prefetcher.counters pf)
      | None -> ())
    t.cores;
  Tp_obs.Counter.register (Cache.counters t.llc);
  Tp_obs.Counter.register (Dram.counters t.dram);
  Tp_obs.Counter.register (Interconnect.counters t.bus);
  t

let platform t = t.platform
let n_cores t = Array.length t.cores

let counter_sets t =
  let core_sets c =
    [ c.st; Cache.counters c.l1d; Cache.counters c.l1i ]
    @ (match c.l2 with Some l2 -> [ Cache.counters l2 ] | None -> [])
    @ [ Tlb.counters c.itlb; Tlb.counters c.dtlb; Tlb.counters c.l2tlb;
        Btb.counters c.btb; Bhb.counters c.bhb ]
    @
    match c.prefetcher with
    | Some pf -> [ Prefetcher.counters pf ]
    | None -> []
  in
  List.concat_map core_sets (Array.to_list t.cores)
  @ [ Cache.counters t.llc; Dram.counters t.dram; Interconnect.counters t.bus ]

let core t i =
  assert (i >= 0 && i < Array.length t.cores);
  t.cores.(i)

let cycles t ~core:i = (core t i).cycles
let add_cycles t ~core:i n = (core t i).cycles <- (core t i).cycles + n

(* Invalidate a physical line from every core's private caches; the
   shared LLC is inclusive, so an LLC eviction must purge inner copies.
   For virtually-indexed L1s every alias set would need checking on real
   hardware; our L1 index uses the vaddr, so we conservatively scan all
   L1 sets via the physical tag by probing each possible index page
   offset — in practice user mappings here are vaddr=colour-preserving,
   so invalidating with vaddr=paddr covers the common case and the
   over-approximation only loses a little timing fidelity. *)
let back_invalidate t line_paddr =
  if line_paddr >= 0 then
    Array.iter
      (fun c ->
        Cache.invalidate_line c.l1d ~vaddr:line_paddr ~paddr:line_paddr;
        Cache.invalidate_line c.l1i ~vaddr:line_paddr ~paddr:line_paddr;
        match c.l2 with
        | Some l2 -> Cache.invalidate_line l2 ~vaddr:line_paddr ~paddr:line_paddr
        | None -> ())
      t.cores

(* Access the shared levels (LLC then DRAM) for one physical line;
   returns latency.  LLC misses are memory-bus transactions — the
   bandwidth-limited, contended resource; LLC hits are served by the
   (much wider) on-chip fabric and are not bus-accounted. *)
let shared_access t ~core_id ~llc_ways ~paddr ~write =
  let c = core t core_id in
  let p = t.platform in
  if Cache.access_masked_fast t.llc ~alloc_ways:llc_ways ~vaddr:paddr ~paddr ~write
  then p.Platform.lat_llc
  else begin
    let evicted_dirty = Cache.last_evicted_dirty t.llc in
    back_invalidate t (Cache.last_evicted t.llc);
    let bus_delay = Interconnect.record t.bus ~core:core_id ~now:c.cycles in
    let wb = if evicted_dirty then wb_cost_per_line else 0 in
    p.Platform.lat_llc + Dram.access t.dram ~paddr + wb + bus_delay
  end

(* Issue prefetches suggested by the stream prefetcher: insert into the
   private L2 and the (inclusive) LLC. *)
let issue_prefetches t ~core_id ~llc_ways pf_addrs =
  let c = core t core_id in
  Tp_obs.Counter.add c.st_prefetch_lines (List.length pf_addrs);
  List.fold_left
    (fun cost pf ->
      (match c.l2 with
      | Some l2 -> ignore (Cache.insert_clean_fast l2 ~vaddr:pf ~paddr:pf)
      | None -> ());
      (* Prefetches allocate under the issuing core's CAT class too. *)
      if
        not
          (Cache.access_masked_fast t.llc ~alloc_ways:llc_ways ~vaddr:pf
             ~paddr:pf ~write:false)
      then back_invalidate t (Cache.last_evicted t.llc);
      cost + prefetch_issue_cost)
    0 pf_addrs

(* Returns the latency to report; cycles of it already charged by the
   walk's own memory accesses are left in [c.walk_charged] (a scratch
   field rather than a result tuple: this path runs once per simulated
   access and must not allocate). *)
let tlb_latency t ~core_id ~asid ~vpn ~kind ~global ~walk =
  let c = core t core_id in
  let p = t.platform in
  c.walk_charged <- 0;
  let first = match kind with Defs.Fetch -> c.itlb | Defs.Read | Defs.Write -> c.dtlb in
  match Tlb.access first ~asid ~vpn ~global with
  | Tlb.Hit -> 0
  | Tlb.Miss -> begin
      match Tlb.access c.l2tlb ~asid ~vpn ~global with
      | Tlb.Hit ->
          Tp_obs.Counter.incr c.st_l2tlb_hits;
          l2_tlb_hit_extra
      | Tlb.Miss -> begin
          Tp_obs.Counter.incr c.st_tlb_walks;
          match walk with
          | Some f ->
              (* The walk's PT reads charge the core as they run; a
                 small fixed TLB-refill overhead comes on top. *)
              let w = f () in
              Tp_obs.Counter.add c.st_walk_cycles w;
              c.walk_charged <- w;
              w + 10
          | None ->
              Tp_obs.Counter.add c.st_walk_cycles p.Platform.tlb_walk;
              p.Platform.tlb_walk
        end
    end

let access t ~core:core_id ~asid ?(global = false) ?(llc_ways = max_int) ?walk
    ~vaddr ~paddr ~kind () =
  let c = core t core_id in
  let p = t.platform in
  let write = match kind with Defs.Write -> true | Defs.Read | Defs.Fetch -> false in
  Tp_obs.Counter.incr c.st_accesses;
  let vpn = Defs.page_of vaddr in
  let lat_tlb = tlb_latency t ~core_id ~asid ~vpn ~kind ~global ~walk in
  let already_charged = c.walk_charged in
  let l1 = match kind with Defs.Fetch -> c.l1i | Defs.Read | Defs.Write -> c.l1d in
  let lat =
    if Cache.access_fast l1 ~vaddr ~paddr ~write then p.Platform.lat_l1
    else begin
      let l1_wb = if Cache.last_evicted_dirty l1 then wb_cost_per_line else 0 in
      let inner =
        match c.l2 with
        | Some l2 -> begin
            (* The stream prefetcher observes L2 traffic (L1 misses). *)
            let pf_cost =
              match c.prefetcher with
              | Some pf ->
                  let suggestions =
                    Prefetcher.on_access pf ~paddr ~line:p.Platform.line
                  in
                  issue_prefetches t ~core_id ~llc_ways suggestions
              | None -> 0
            in
            if Cache.access_fast l2 ~vaddr:paddr ~paddr ~write:false then
              p.Platform.lat_l2 + pf_cost
            else begin
              let l2_wb =
                if Cache.last_evicted_dirty l2 then wb_cost_per_line else 0
              in
              p.Platform.lat_l2 + l2_wb + pf_cost
              + shared_access t ~core_id ~llc_ways ~paddr ~write:false
            end
          end
        | None -> shared_access t ~core_id ~llc_ways ~paddr ~write:false
      in
      p.Platform.lat_l1 + l1_wb + inner
    end
  in
  let total = lat_tlb + lat in
  c.cycles <- c.cycles + total - already_charged;
  total

let cond_branch t ~core:core_id ~asid ~vaddr ~paddr ~taken =
  let c = core t core_id in
  let p = t.platform in
  let fetch = access t ~core:core_id ~asid ~vaddr ~paddr ~kind:Defs.Fetch () in
  let penalty =
    match Bhb.branch c.bhb ~addr:vaddr ~taken with
    | Bhb.Predicted -> 0
    | Bhb.Mispredicted -> p.Platform.mispredict_penalty
  in
  c.cycles <- c.cycles + penalty;
  fetch + penalty

let jump t ~core:core_id ~asid ~vaddr ~paddr ~target =
  let c = core t core_id in
  let p = t.platform in
  let fetch = access t ~core:core_id ~asid ~vaddr ~paddr ~kind:Defs.Fetch () in
  let penalty =
    match Btb.branch c.btb ~addr:vaddr ~target with
    | Btb.Predicted -> 0
    | Btb.Mispredicted -> p.Platform.mispredict_penalty
  in
  c.cycles <- c.cycles + penalty;
  fetch + penalty

(* A flush instruction walks the whole tag array (cost per capacity
   line, independent of occupancy) and writes back what is dirty. *)
let clflush_cost = 40

let clflush t ~core:core_id ~paddr =
  let line_mask = lnot (t.platform.Platform.line - 1) in
  let la = paddr land line_mask in
  back_invalidate t la;
  Cache.invalidate_line t.llc ~vaddr:la ~paddr:la;
  let c = core t core_id in
  Tp_obs.Counter.incr c.st_clflushes;
  c.cycles <- c.cycles + clflush_cost;
  clflush_cost

let flush_cache_cost cache =
  let lines = Cache.capacity_lines cache in
  let dirty = Cache.flush cache in
  (lines * inval_cost_per_line) + (dirty * wb_cost_per_line)

(* One switch-flush step.  Each hardware flush is accounted in the
   counters plus (when tracing) an "hw" span covering the cycles it
   occupied the core; the precharge-all is not a flush operation. *)
let flush_step t ~core:core_id step =
  let c = core t core_id in
  let charge what cost =
    Tp_obs.Counter.incr c.st_flush_ops;
    Tp_obs.Counter.add c.st_flush_cycles cost;
    if Tp_obs.Trace.enabled () then
      Tp_obs.Trace.span ~core:core_id ~cat:"hw" ~name:what ~ts:c.cycles
        ~dur:cost ();
    c.cycles <- c.cycles + cost;
    cost
  in
  match step with
  | Flush.L1_hw ->
      charge "flush_l1" (flush_cache_cost c.l1d + flush_cache_cost c.l1i)
  | Flush.L1_manual ->
      invalid_arg "Machine.flush_step: the manual L1 flush is a kernel step"
  | Flush.L2 -> (
      match c.l2 with
      | None -> 0
      | Some l2 -> charge "flush_l2" (flush_cache_cost l2))
  | Flush.Llc ->
      let cost = flush_cache_cost t.llc in
      (* Inclusive hierarchy: private copies are gone too. *)
      Array.iter
        (fun cc ->
          ignore (Cache.flush cc.l1d);
          ignore (Cache.flush cc.l1i);
          match cc.l2 with Some l2 -> ignore (Cache.flush l2) | None -> ())
        t.cores;
      charge "flush_llc" cost
  | Flush.Tlb ->
      Tlb.flush_all c.itlb;
      Tlb.flush_all c.dtlb;
      Tlb.flush_all c.l2tlb;
      charge "flush_tlbs" tlb_flush_cost
  | Flush.Bp ->
      Btb.flush c.btb;
      Bhb.flush c.bhb;
      charge "flush_bp" bp_flush_cost
  | Flush.Dram_close ->
      Dram.close_all t.dram;
      c.cycles <- c.cycles + dram_close_cost;
      dram_close_cost

let l1d t ~core:i = (core t i).l1d
let l1i t ~core:i = (core t i).l1i
let l2 t ~core:i = (core t i).l2
let llc t = t.llc
let dtlb t ~core:i = (core t i).dtlb
let itlb t ~core:i = (core t i).itlb
let l2tlb t ~core:i = (core t i).l2tlb
let btb t ~core:i = (core t i).btb
let bhb t ~core:i = (core t i).bhb
let prefetcher t ~core:i = (core t i).prefetcher
let bus t = t.bus
let dram t = t.dram

let set_prefetcher_enabled t ~core:i b =
  match (core t i).prefetcher with
  | Some pf -> Prefetcher.set_enabled pf b
  | None -> ()

(* ---- whole-machine snapshot / restore --------------------------- *)

(* Crossed once per component restored, so the fail-at-step-N driver
   can crash a restore between any two components.  Recovery is simply
   restoring again: load_state overwrites everything it touches, so a
   re-restore from the same snapshot is idempotent and no torn state
   survives. *)
let point_restore = "snapshot_restore"
let () = Tp_fault.Fault.register point_restore

type snapshot = {
  snap_platform : string;
  snap_data : Blob.t;
  mutable snap_digest : string option; (* computed lazily, cached *)
}

let core_state_words c =
  2 (* cycles, walk_charged *)
  + Blob.counters_words c.st
  + Cache.state_words c.l1d + Cache.state_words c.l1i
  + (match c.l2 with Some l2 -> Cache.state_words l2 | None -> 0)
  + Tlb.state_words c.itlb + Tlb.state_words c.dtlb + Tlb.state_words c.l2tlb
  + Btb.state_words c.btb + Bhb.state_words c.bhb
  +
  match c.prefetcher with Some pf -> Prefetcher.state_words pf | None -> 0

let snapshot_words t =
  Array.fold_left (fun acc c -> acc + core_state_words c) 0 t.cores
  + Cache.state_words t.llc + Dram.state_words t.dram
  + Interconnect.state_words t.bus

let save_core c blob off =
  blob.{off} <- c.cycles;
  blob.{off + 1} <- c.walk_charged;
  let off = Blob.save_counters blob (off + 2) c.st in
  let off = Cache.save_state c.l1d blob off in
  let off = Cache.save_state c.l1i blob off in
  let off =
    match c.l2 with Some l2 -> Cache.save_state l2 blob off | None -> off
  in
  let off = Tlb.save_state c.itlb blob off in
  let off = Tlb.save_state c.dtlb blob off in
  let off = Tlb.save_state c.l2tlb blob off in
  let off = Btb.save_state c.btb blob off in
  let off = Bhb.save_state c.bhb blob off in
  match c.prefetcher with
  | Some pf -> Prefetcher.save_state pf blob off
  | None -> off

let load_core c blob off =
  Tp_fault.Fault.hit point_restore;
  c.cycles <- blob.{off};
  c.walk_charged <- blob.{off + 1};
  let off = Blob.load_counters blob (off + 2) c.st in
  let off = Cache.load_state c.l1d blob off in
  let off = Cache.load_state c.l1i blob off in
  let off =
    match c.l2 with Some l2 -> Cache.load_state l2 blob off | None -> off
  in
  let off = Tlb.load_state c.itlb blob off in
  let off = Tlb.load_state c.dtlb blob off in
  let off = Tlb.load_state c.l2tlb blob off in
  let off = Btb.load_state c.btb blob off in
  let off = Bhb.load_state c.bhb blob off in
  match c.prefetcher with
  | Some pf -> Prefetcher.load_state pf blob off
  | None -> off

let snapshot t =
  let n = snapshot_words t in
  let blob = Blob.create n in
  let off = Array.fold_left (fun off c -> save_core c blob off) 0 t.cores in
  let off = Cache.save_state t.llc blob off in
  let off = Dram.save_state t.dram blob off in
  let off = Interconnect.save_state t.bus blob off in
  assert (off = n);
  {
    snap_platform = t.platform.Platform.name;
    snap_data = blob;
    snap_digest = None;
  }

let restore t s =
  if s.snap_platform <> t.platform.Platform.name then
    invalid_arg
      (Printf.sprintf
         "Machine.restore: snapshot of platform %s applied to a %s machine"
         s.snap_platform t.platform.Platform.name);
  if Blob.length s.snap_data <> snapshot_words t then
    invalid_arg "Machine.restore: snapshot size does not match this machine";
  let blob = s.snap_data in
  let off = Array.fold_left (fun off c -> load_core c blob off) 0 t.cores in
  Tp_fault.Fault.hit point_restore;
  let off = Cache.load_state t.llc blob off in
  Tp_fault.Fault.hit point_restore;
  let off = Dram.load_state t.dram blob off in
  Tp_fault.Fault.hit point_restore;
  let off = Interconnect.load_state t.bus blob off in
  ignore (off : int)

let snapshot_digest s =
  match s.snap_digest with
  | Some d -> d
  | None ->
      let d = Blob.digest s.snap_data in
      s.snap_digest <- Some d;
      d

let state_digest t = snapshot_digest (snapshot t)
