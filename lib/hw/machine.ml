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
  (* The core's own model words: [cycles walk_charged].  The second is
     the cycles the last TLB walk already charged to [cycles] itself,
     so [access] can report a total latency without double-charging
     and without boxing a result tuple on the per-access path. *)
  w : int array;
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
  (* Every mutable model word, in snapshot order. *)
  parts : Blob.part list;
}

let counter_sets t =
  List.filter_map
    (function Blob.Counters st -> Some st | Blob.Words _ | Blob.Floats _ -> None)
    t.parts

let[@inline] cycles_of c = Array.unsafe_get c.w 0
let[@inline] set_cycles c v = Array.unsafe_set c.w 0 v
let[@inline] walk_charged c = Array.unsafe_get c.w 1
let[@inline] set_walk_charged c v = Array.unsafe_set c.w 1 v

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
      w = Array.make 2 0;
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
  let cores = Array.init platform.cores mk_core in
  let llc = Cache.create ~name:"llc" platform.llc in
  let dram = Dram.create ~name:"dram" platform.dram in
  (* Memory-bus service rate scaled to the platform: 1.3x the rate of
     a single latency-bound DRAM stream, so one stream fits and two
     concurrent ones contend. *)
  let bus =
    let stream_latency =
      platform.lat_l1 + platform.lat_l2 + platform.lat_llc
      + platform.dram.Dram.t_hit
    in
    Interconnect.create ~cores:platform.cores ~window:(10 * stream_latency)
      ~slots_per_window:13 ()
  in
  let opt parts = function Some x -> parts x | None -> [] in
  let core_parts c =
    List.concat
      [
        [ Blob.Words c.w; Blob.Counters c.st ];
        Cache.parts c.l1d;
        Cache.parts c.l1i;
        opt Cache.parts c.l2;
        Tlb.parts c.itlb;
        Tlb.parts c.dtlb;
        Tlb.parts c.l2tlb;
        Btb.parts c.btb;
        Bhb.parts c.bhb;
        opt Prefetcher.parts c.prefetcher;
      ]
  in
  let parts =
    List.concat_map core_parts (Array.to_list cores)
    @ Cache.parts llc @ Dram.parts dram @ Interconnect.parts bus
  in
  let t = { platform; cores; llc; dram; bus; parts } in
  (* Publish this machine's counter sets; a later machine with the same
     topology replaces them, so the registry always describes the most
     recent boot (what `tpsim stats` dumps). *)
  List.iter Tp_obs.Counter.register (counter_sets t);
  t

let platform t = t.platform
let n_cores t = Array.length t.cores

let core t i =
  assert (i >= 0 && i < Array.length t.cores);
  t.cores.(i)

let cycles t ~core:i = cycles_of (core t i)

let add_cycles t ~core:i n =
  let c = core t i in
  set_cycles c (cycles_of c + n)

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
    for i = 0 to Array.length t.cores - 1 do
      let c = t.cores.(i) in
      Cache.invalidate_line c.l1d ~vaddr:line_paddr ~paddr:line_paddr;
      Cache.invalidate_line c.l1i ~vaddr:line_paddr ~paddr:line_paddr;
      match c.l2 with
      | Some l2 -> Cache.invalidate_line l2 ~vaddr:line_paddr ~paddr:line_paddr
      | None -> ()
    done

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
    let bus_delay = Interconnect.record t.bus ~core:core_id ~now:(cycles_of c) in
    let wb = if evicted_dirty then wb_cost_per_line else 0 in
    p.Platform.lat_llc + Dram.access t.dram ~paddr + wb + bus_delay
  end

(* Issue the [n] prefetches the stream prefetcher just suggested:
   insert into the private L2 and the (inclusive) LLC. *)
let issue_prefetches t c ~llc_ways pf n =
  Tp_obs.Counter.add c.st_prefetch_lines n;
  for i = 0 to n - 1 do
    let a = Prefetcher.suggestion pf i in
    (match c.l2 with
    | Some l2 -> ignore (Cache.insert_clean_fast l2 ~vaddr:a ~paddr:a)
    | None -> ());
    (* Prefetches allocate under the issuing core's CAT class too. *)
    if
      not
        (Cache.access_masked_fast t.llc ~alloc_ways:llc_ways ~vaddr:a ~paddr:a
           ~write:false)
    then back_invalidate t (Cache.last_evicted t.llc)
  done;
  n * prefetch_issue_cost

(* The one access path, live and replayed alike.  It runs once per
   simulated access and allocates nothing: a TLB walk's page-table
   lines arrive as two ints ([root_pa], and [leaf_pa] or -1), and the
   latency the walk already charged is left in the core's walk_charged
   word instead of a result tuple. *)
let rec access_pt t ~core:core_id ~asid ~global ~llc_ways ~root_pa ~leaf_pa
    ~vaddr ~paddr ~kind =
  let c = core t core_id in
  let p = t.platform in
  let write = match kind with Defs.Write -> true | Defs.Read | Defs.Fetch -> false in
  Tp_obs.Counter.incr c.st_accesses;
  let vpn = Defs.page_of vaddr in
  let lat_tlb = tlb_latency t c ~core_id ~asid ~vpn ~kind ~global ~root_pa ~leaf_pa in
  let already_charged = walk_charged c in
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
                  issue_prefetches t c ~llc_ways pf
                    (Prefetcher.on_access pf ~paddr ~line:p.Platform.line)
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
  set_cycles c (cycles_of c + total - already_charged);
  total

(* Returns the latency to report; cycles of it already charged by the
   walk's own memory accesses are left in the core's walk_charged word. *)
and tlb_latency t c ~core_id ~asid ~vpn ~kind ~global ~root_pa ~leaf_pa =
  set_walk_charged c 0;
  let first = match kind with Defs.Fetch -> c.itlb | Defs.Read | Defs.Write -> c.dtlb in
  match Tlb.access first ~asid ~vpn ~global with
  | Tlb.Hit -> 0
  | Tlb.Miss -> begin
      match Tlb.access c.l2tlb ~asid ~vpn ~global with
      | Tlb.Hit ->
          Tp_obs.Counter.incr c.st_l2tlb_hits;
          l2_tlb_hit_extra
      | Tlb.Miss ->
          Tp_obs.Counter.incr c.st_tlb_walks;
          if root_pa >= 0 then begin
            (* The walk reads the root then the leaf PT line through the
               kernel's physical window (they are data to the walker);
               those reads charge the core as they run, and a small
               fixed TLB-refill overhead comes on top. *)
            let root = pt_read t ~core_id root_pa in
            let w = if leaf_pa >= 0 then root + pt_read t ~core_id leaf_pa else root in
            Tp_obs.Counter.add c.st_walk_cycles w;
            set_walk_charged c w;
            w + 10
          end
          else begin
            let w = t.platform.Platform.tlb_walk in
            Tp_obs.Counter.add c.st_walk_cycles w;
            w
          end
    end

and pt_read t ~core_id pa =
  access_pt t ~core:core_id ~asid:0 ~global:true ~llc_ways:max_int ~root_pa:(-1)
    ~leaf_pa:(-1) ~vaddr:pa ~paddr:pa ~kind:Defs.Read

let access t ~core ~asid ?(global = false) ?(llc_ways = max_int) ~vaddr ~paddr
    ~kind () =
  access_pt t ~core ~asid ~global ~llc_ways ~root_pa:(-1) ~leaf_pa:(-1) ~vaddr
    ~paddr ~kind

let cond_branch t ~core:core_id ~asid ~vaddr ~paddr ~taken =
  let c = core t core_id in
  let p = t.platform in
  let fetch =
    access_pt t ~core:core_id ~asid ~global:false ~llc_ways:max_int ~root_pa:(-1)
      ~leaf_pa:(-1) ~vaddr ~paddr ~kind:Defs.Fetch
  in
  let penalty =
    match Bhb.branch c.bhb ~addr:vaddr ~taken with
    | Bhb.Predicted -> 0
    | Bhb.Mispredicted -> p.Platform.mispredict_penalty
  in
  set_cycles c (cycles_of c + penalty);
  fetch + penalty

let jump t ~core:core_id ~asid ~vaddr ~paddr ~target =
  let c = core t core_id in
  let p = t.platform in
  let fetch =
    access_pt t ~core:core_id ~asid ~global:false ~llc_ways:max_int ~root_pa:(-1)
      ~leaf_pa:(-1) ~vaddr ~paddr ~kind:Defs.Fetch
  in
  let penalty =
    match Btb.branch c.btb ~addr:vaddr ~target with
    | Btb.Predicted -> 0
    | Btb.Mispredicted -> p.Platform.mispredict_penalty
  in
  set_cycles c (cycles_of c + penalty);
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
  set_cycles c (cycles_of c + clflush_cost);
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
      Tp_obs.Trace.span ~core:core_id ~cat:"hw" ~name:what ~ts:(cycles_of c)
        ~dur:cost ();
    set_cycles c (cycles_of c + cost);
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
      set_cycles c (cycles_of c + dram_close_cost);
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

(* Crossed once per part restored, so the fail-at-step-N driver can
   crash a restore between any two parts.  Recovery is simply
   restoring again: loading a part overwrites all of it, so a
   re-restore from the same snapshot is idempotent and no torn state
   survives. *)
let point_restore = "snapshot_restore"
let () = Tp_fault.Fault.register point_restore

type snapshot = {
  snap_platform : string;
  snap_data : Blob.t;
  mutable snap_digest : string option; (* computed lazily, cached *)
}

(* The one walk over the machine's state: [f] is handed each part and
   its offset in the snapshot layout. *)
let fold_parts t f = List.fold_left f 0 t.parts

let snapshot_words t = fold_parts t (fun off p -> off + Blob.part_words p)

let snapshot t =
  let blob = Blob.create (snapshot_words t) in
  ignore (fold_parts t (Blob.save_part blob) : int);
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
  ignore
    (fold_parts t (fun off p ->
         Tp_fault.Fault.hit point_restore;
         Blob.load_part s.snap_data off p)
      : int)

let snapshot_digest s =
  match s.snap_digest with
  | Some d -> d
  | None ->
      let d = Blob.digest s.snap_data in
      s.snap_digest <- Some d;
      d

let state_digest t = snapshot_digest (snapshot t)
