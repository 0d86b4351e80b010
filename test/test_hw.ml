(* Tests for the hardware simulator: cache geometry/behaviour, TLB,
   predictors, prefetcher, DRAM, interconnect, machine composition. *)

open Tp_hw

let g32k8 = { Cache.size = 32768; ways = 8; line = 64; indexing = Cache.Virtual }

let mk () = Cache.create g32k8

let test_cache_geometry () =
  Alcotest.(check int) "sets" 64 (Cache.sets g32k8);
  Alcotest.(check int) "colours of L1" 1 (Cache.colours g32k8);
  let llc = { Cache.size = 8 * 1024 * 1024; ways = 16; line = 64; indexing = Cache.Physical } in
  Alcotest.(check int) "LLC sets" 8192 (Cache.sets llc);
  Alcotest.(check int) "LLC colours" 128 (Cache.colours llc);
  let l2 = { Cache.size = 256 * 1024; ways = 8; line = 64; indexing = Cache.Physical } in
  Alcotest.(check int) "x86 L2 colours" 8 (Cache.colours l2)

let test_cache_miss_then_hit () =
  let c = mk () in
  Alcotest.(check bool) "first access misses" false
    (Cache.access_fast c ~vaddr:0x1000 ~paddr:0x1000 ~write:false);
  Alcotest.(check bool) "second access hits" true
    (Cache.access_fast c ~vaddr:0x1000 ~paddr:0x1000 ~write:false)

let test_cache_same_line_hits () =
  let c = mk () in
  ignore (Cache.access_fast c ~vaddr:0x1000 ~paddr:0x1000 ~write:false);
  Alcotest.(check bool) "same line other byte hits" true
    (Cache.access_fast c ~vaddr:0x103F ~paddr:0x103F ~write:false)

let test_cache_conflict_eviction () =
  let c = mk () in
  (* 64 sets * 64B line: addresses 4096 apart map to the same set. *)
  let stride = 64 * 64 in
  for w = 0 to 8 do
    ignore (Cache.access_fast c ~vaddr:(w * stride) ~paddr:(w * stride) ~write:false)
  done;
  (* 9 lines into an 8-way set: the first (LRU) must be gone. *)
  Alcotest.(check bool) "way 0 evicted" false
    (Cache.probe c ~vaddr:0 ~paddr:0);
  Alcotest.(check bool) "way 1 still present" true
    (Cache.probe c ~vaddr:stride ~paddr:stride)

let test_cache_lru_order () =
  let c = mk () in
  let stride = 64 * 64 in
  for w = 0 to 7 do
    ignore (Cache.access_fast c ~vaddr:(w * stride) ~paddr:(w * stride) ~write:false)
  done;
  (* Touch way 0 so way 1 becomes LRU; a new line must evict way 1. *)
  ignore (Cache.access_fast c ~vaddr:0 ~paddr:0 ~write:false);
  ignore (Cache.access_fast c ~vaddr:(8 * stride) ~paddr:(8 * stride) ~write:false);
  Alcotest.(check bool) "way 0 survives (recently used)" true
    (Cache.probe c ~vaddr:0 ~paddr:0);
  Alcotest.(check bool) "way 1 evicted (LRU)" false
    (Cache.probe c ~vaddr:stride ~paddr:stride)

let test_cache_dirty_flush () =
  let c = mk () in
  ignore (Cache.access_fast c ~vaddr:0 ~paddr:0 ~write:true);
  ignore (Cache.access_fast c ~vaddr:64 ~paddr:64 ~write:true);
  ignore (Cache.access_fast c ~vaddr:128 ~paddr:128 ~write:false);
  Alcotest.(check int) "dirty count" 2 (Cache.dirty_lines c);
  let wb = Cache.flush c in
  Alcotest.(check int) "flush writes back dirty lines" 2 wb;
  Alcotest.(check int) "empty after flush" 0 (Cache.valid_lines c);
  Alcotest.(check bool) "probe misses after flush" false
    (Cache.probe c ~vaddr:0 ~paddr:0)

let test_cache_write_hit_dirties () =
  let c = mk () in
  ignore (Cache.access_fast c ~vaddr:0 ~paddr:0 ~write:false);
  Alcotest.(check int) "clean" 0 (Cache.dirty_lines c);
  ignore (Cache.access_fast c ~vaddr:0 ~paddr:0 ~write:true);
  Alcotest.(check int) "dirtied by write hit" 1 (Cache.dirty_lines c)

let test_cache_eviction_reports_address () =
  let c = Cache.create { Cache.size = 128; ways = 1; line = 64; indexing = Cache.Physical } in
  ignore (Cache.access_fast c ~vaddr:0 ~paddr:0 ~write:true);
  Alcotest.(check bool) "miss" false
    (Cache.access_fast c ~vaddr:128 ~paddr:128 ~write:false);
  Alcotest.(check bool) "evicted dirty" true (Cache.last_evicted_dirty c);
  Alcotest.(check int) "evicted line addr" 0 (Cache.last_evicted c);
  (* Fill of an invalid way reports no eviction. *)
  Alcotest.(check bool) "miss" false
    (Cache.access_fast c ~vaddr:64 ~paddr:64 ~write:false);
  Alcotest.(check int) "no victim" (-1) (Cache.last_evicted c)

let test_cache_virtual_vs_physical_indexing () =
  let v = Cache.create { g32k8 with Cache.indexing = Cache.Virtual } in
  let p = Cache.create { g32k8 with Cache.indexing = Cache.Physical } in
  Alcotest.(check int) "virtual uses vaddr" 1 (Cache.set_of v ~vaddr:64 ~paddr:0);
  Alcotest.(check int) "physical uses paddr" 0 (Cache.set_of p ~vaddr:64 ~paddr:0)

let test_cache_insert_clean () =
  let c = mk () in
  Alcotest.(check bool) "absent before" false
    (Cache.insert_clean_fast c ~vaddr:0 ~paddr:0);
  Alcotest.(check bool) "present" true (Cache.probe c ~vaddr:0 ~paddr:0);
  Alcotest.(check int) "not dirty" 0 (Cache.dirty_lines c)

let test_tlb_hit_miss_and_asid () =
  let t = Tlb.create { Tlb.entries = 64; ways = 4 } in
  Alcotest.(check bool) "miss" true
    (Tlb.access t ~asid:1 ~vpn:5 ~global:false = Tlb.Miss);
  Alcotest.(check bool) "hit" true
    (Tlb.access t ~asid:1 ~vpn:5 ~global:false = Tlb.Hit);
  Alcotest.(check bool) "other asid misses" true
    (Tlb.access t ~asid:2 ~vpn:5 ~global:false = Tlb.Miss)

let test_tlb_global_crosses_asids () =
  let t = Tlb.create { Tlb.entries = 64; ways = 4 } in
  ignore (Tlb.access t ~asid:1 ~vpn:9 ~global:true);
  Alcotest.(check bool) "global hits under other asid" true
    (Tlb.access t ~asid:2 ~vpn:9 ~global:true = Tlb.Hit)

let test_tlb_flush_asid_spares_global () =
  let t = Tlb.create { Tlb.entries = 64; ways = 4 } in
  ignore (Tlb.access t ~asid:1 ~vpn:1 ~global:false);
  ignore (Tlb.access t ~asid:1 ~vpn:2 ~global:true);
  ignore (Tlb.access t ~asid:2 ~vpn:3 ~global:false);
  Tlb.flush_asid t 1;
  Alcotest.(check bool) "asid1 entry gone" false (Tlb.probe t ~asid:1 ~vpn:1);
  Alcotest.(check bool) "global survives" true (Tlb.probe t ~asid:1 ~vpn:2);
  Alcotest.(check bool) "asid2 survives" true (Tlb.probe t ~asid:2 ~vpn:3)

let test_tlb_conflict_one_way () =
  (* 1-way 32-entry TLB: vpns 32 apart conflict (the Sabre L1 TLBs). *)
  let t = Tlb.create { Tlb.entries = 32; ways = 1 } in
  ignore (Tlb.access t ~asid:1 ~vpn:0 ~global:false);
  ignore (Tlb.access t ~asid:1 ~vpn:32 ~global:false);
  Alcotest.(check bool) "original evicted" false (Tlb.probe t ~asid:1 ~vpn:0)

let test_tlb_flush_all () =
  let t = Tlb.create { Tlb.entries = 64; ways = 4 } in
  ignore (Tlb.access t ~asid:1 ~vpn:1 ~global:true);
  Tlb.flush_all t;
  Alcotest.(check int) "empty" 0 (Tlb.valid_entries t)

let test_btb_predicts_after_training () =
  let b = Btb.create { Btb.entries = 512; ways = 4 } in
  Alcotest.(check bool) "cold mispredicts" true
    (Btb.branch b ~addr:0x400 ~target:0x800 = Btb.Mispredicted);
  Alcotest.(check bool) "trained predicts" true
    (Btb.branch b ~addr:0x400 ~target:0x800 = Btb.Predicted);
  Alcotest.(check bool) "target change mispredicts" true
    (Btb.branch b ~addr:0x400 ~target:0xC00 = Btb.Mispredicted)

let test_btb_flush () =
  let b = Btb.create { Btb.entries = 512; ways = 4 } in
  ignore (Btb.branch b ~addr:0x400 ~target:0x800);
  Btb.flush b;
  Alcotest.(check bool) "mispredicts after flush" true
    (Btb.branch b ~addr:0x400 ~target:0x800 = Btb.Mispredicted);
  Alcotest.(check int) "then one valid entry" 1 (Btb.valid_entries b)

let test_btb_conflict () =
  let b = Btb.create { Btb.entries = 8; ways = 1 } in
  ignore (Btb.branch b ~addr:0 ~target:100);
  (* 8 sets, 4-byte granularity: addr 32 maps to set 0 too. *)
  ignore (Btb.branch b ~addr:32 ~target:200);
  Alcotest.(check bool) "alias evicted original" true
    (Btb.branch b ~addr:0 ~target:100 = Btb.Mispredicted)

let test_bhb_learns_pattern () =
  let h = Bhb.create { Bhb.history_bits = 8; pht_entries = 1024 } in
  (* A branch always taken becomes predicted after warmup. *)
  let mis = ref 0 in
  for i = 1 to 100 do
    if Bhb.branch h ~addr:0x40 ~taken:true = Bhb.Mispredicted && i > 10 then
      incr mis
  done;
  Alcotest.(check int) "steady state predicts always-taken" 0 !mis

let test_bhb_flush_resets () =
  let h = Bhb.create { Bhb.history_bits = 8; pht_entries = 1024 } in
  for _ = 1 to 50 do
    ignore (Bhb.branch h ~addr:0x40 ~taken:true)
  done;
  Bhb.flush h;
  Alcotest.(check bool) "mispredicts taken after flush" true
    (Bhb.branch h ~addr:0x40 ~taken:true = Bhb.Mispredicted)

(* The lines one demand access makes the prefetcher suggest. *)
let suggestions pf ~paddr ~line =
  List.init (Prefetcher.on_access pf ~paddr ~line) (Prefetcher.suggestion pf)

let test_prefetcher_stream_detection () =
  let pf = Prefetcher.create ~slots:16 ~degree:2 () in
  let line = 64 in
  (* Sequential accesses within a page: third access confirms. *)
  Alcotest.(check (list int)) "1st: none" [] (suggestions pf ~paddr:0 ~line);
  Alcotest.(check (list int)) "2nd: none" [] (suggestions pf ~paddr:64 ~line);
  let pfs = suggestions pf ~paddr:128 ~line in
  Alcotest.(check (list int)) "3rd: prefetch next two" [ 192; 256 ] pfs

let test_prefetcher_page_boundary () =
  let pf = Prefetcher.create ~slots:16 ~degree:2 () in
  let line = 64 in
  let last = 4096 - 64 in
  ignore (suggestions pf ~paddr:(last - 128) ~line);
  ignore (suggestions pf ~paddr:(last - 64) ~line);
  let pfs = suggestions pf ~paddr:last ~line in
  Alcotest.(check (list int)) "no cross-page prefetch" [] pfs

let test_prefetcher_disabled () =
  let pf = Prefetcher.create ~slots:16 ~degree:2 () in
  Prefetcher.set_enabled pf false;
  for i = 0 to 5 do
    Alcotest.(check (list int)) "disabled: none" []
      (suggestions pf ~paddr:(i * 64) ~line:64)
  done

let test_prefetcher_state_survives_and_aliases () =
  let pf = Prefetcher.create ~slots:16 ~degree:2 () in
  let line = 64 in
  (* Domain A trains a stream on page 0. *)
  for i = 0 to 4 do
    ignore (suggestions pf ~paddr:(i * line) ~line)
  done;
  Alcotest.(check bool) "trained" true (Prefetcher.trained_slots pf >= 1);
  (* Domain B touches a page aliasing the same (hashed) slot and the
     same partial tag: the tracker still holds A's state, so B's first
     access that "continues" A's stream triggers a spurious prefetch. *)
  let slot0 = Prefetcher.slot_of pf ~page:0 in
  let ptag page = (page lsr 4) land 3 in
  let rec find page =
    if Prefetcher.slot_of pf ~page = slot0 && ptag page = ptag 0 && page > 0 then
      page
    else find (page + 1)
  in
  let pb = find 1 * 4096 in
  let pfs = suggestions pf ~paddr:(pb + (5 * line)) ~line in
  (* A's last_line was 4, direction +1; B's first access to line 5
     looks like a continuation => spurious prefetch, B-visible. *)
  Alcotest.(check bool) "spurious prefetch from stale state" true
    (List.length pfs > 0);
  Prefetcher.hard_reset pf;
  Alcotest.(check int) "hard reset clears" 0 (Prefetcher.trained_slots pf)

let test_dram_row_buffer () =
  let d = Dram.create { Dram.banks = 8; row_bits = 13; t_hit = 100; t_miss = 200 } in
  Alcotest.(check int) "first access misses row" 200 (Dram.access d ~paddr:0);
  Alcotest.(check int) "same row hits" 100 (Dram.access d ~paddr:64);
  (* Next row in the same bank: rows are bank-interleaved, so row+8. *)
  Alcotest.(check int) "row conflict misses" 200
    (Dram.access d ~paddr:(8 * 8192));
  Dram.close_all d;
  Alcotest.(check int) "closed after precharge" 200 (Dram.access d ~paddr:64)

(* Issue [n] transactions on [core], one every [gap] cycles; returns
   the delay of the last one. *)
let flood bus ~core ~gap ~n =
  let d = ref 0 in
  for i = 1 to n do
    d := Interconnect.record bus ~core ~now:(i * gap)
  done;
  !d

let test_interconnect_contention () =
  let b = Interconnect.create ~cores:2 ~window:1000 ~slots_per_window:5 () in
  (* A lone moderate stream fits the service rate... *)
  Alcotest.(check int) "alone: no delay" 0 (flood b ~core:0 ~gap:300 ~n:20);
  (* ...but once a second core streams concurrently, delays appear. *)
  ignore (flood b ~core:1 ~gap:300 ~n:20);
  let d = Interconnect.record b ~core:0 ~now:6300 in
  Alcotest.(check bool) "delayed under contention" true (d > 0)

let test_interconnect_partitioned () =
  (* Under the hypothetical bandwidth partition, a core's delay is
     independent of the other core's traffic. *)
  let measure ~other_floods =
    let b = Interconnect.create ~cores:2 ~window:1000 ~slots_per_window:5 () in
    Interconnect.set_partitioned b true;
    if other_floods then ignore (flood b ~core:1 ~gap:10 ~n:50);
    flood b ~core:0 ~gap:300 ~n:20
  in
  Alcotest.(check int) "other core's flood is invisible"
    (measure ~other_floods:false)
    (measure ~other_floods:true)

let test_machine_latency_orders () =
  let m = Machine.create Platform.haswell in
  let miss = Machine.access m ~core:0 ~asid:1 ~vaddr:0x10000 ~paddr:0x10000 ~kind:Defs.Read () in
  let hit = Machine.access m ~core:0 ~asid:1 ~vaddr:0x10000 ~paddr:0x10000 ~kind:Defs.Read () in
  Alcotest.(check bool) "miss slower than hit" true (miss > hit);
  Alcotest.(check bool) "hit is L1-ish" true (hit <= 10)

let test_machine_cycles_accumulate () =
  let m = Machine.create Platform.sabre in
  let c0 = Machine.cycles m ~core:0 in
  ignore (Machine.access m ~core:0 ~asid:1 ~vaddr:0 ~paddr:0 ~kind:Defs.Read ());
  Alcotest.(check bool) "cycles advanced" true (Machine.cycles m ~core:0 > c0);
  Alcotest.(check int) "other core unaffected" 0 (Machine.cycles m ~core:1)

let test_machine_llc_back_invalidation () =
  let m = Machine.create Platform.haswell in
  (* Core 0 loads a line (fills L1/L2/LLC). *)
  ignore (Machine.access m ~core:0 ~asid:1 ~vaddr:0x40000 ~paddr:0x40000 ~kind:Defs.Read ());
  Alcotest.(check bool) "in core0 L1" true
    (Cache.probe (Machine.l1d m ~core:0) ~vaddr:0x40000 ~paddr:0x40000);
  (* Core 1 floods the same LLC set until core0's line is evicted. *)
  let llc = Machine.llc m in
  let g = Cache.geometry llc in
  let stride = Cache.sets g * g.Cache.line in
  for w = 1 to g.Cache.ways + 4 do
    let a = 0x40000 + (w * stride) in
    ignore (Machine.access m ~core:1 ~asid:2 ~vaddr:a ~paddr:a ~kind:Defs.Read ())
  done;
  Alcotest.(check bool) "LLC eviction back-invalidates core0 L1" false
    (Cache.probe (Machine.l1d m ~core:0) ~vaddr:0x40000 ~paddr:0x40000)

let test_machine_flush_ops () =
  let m = Machine.create Platform.sabre in
  ignore (Machine.access m ~core:0 ~asid:1 ~vaddr:0 ~paddr:0 ~kind:Defs.Write ());
  let cost = Machine.flush_step m ~core:0 Tp_hw.Flush.L1_hw in
  Alcotest.(check bool) "flush costs cycles" true (cost > 0);
  Alcotest.(check int) "L1D empty" 0 (Cache.valid_lines (Machine.l1d m ~core:0))

let test_machine_flush_cost_depends_on_dirtiness () =
  let mk_dirty n =
    let m = Machine.create Platform.sabre in
    for i = 0 to n - 1 do
      ignore
        (Machine.access m ~core:0 ~asid:1 ~vaddr:(i * 32) ~paddr:(i * 32)
           ~kind:Defs.Write ())
    done;
    Machine.flush_step m ~core:0 Tp_hw.Flush.L1_hw
  in
  Alcotest.(check bool) "more dirty lines cost more" true (mk_dirty 512 > mk_dirty 16)

let test_cache_masked_allocation () =
  let c = Cache.create { Cache.size = 512; ways = 8; line = 64; indexing = Cache.Physical } in
  (* One set, 8 ways; class A owns ways 0-3, class B ways 4-7. *)
  let mask_a = 0x0F and mask_b = 0xF0 in
  for i = 0 to 3 do
    ignore (Cache.access_masked_fast c ~alloc_ways:mask_a ~vaddr:(i * 64) ~paddr:(i * 64) ~write:false)
  done;
  for i = 4 to 7 do
    ignore (Cache.access_masked_fast c ~alloc_ways:mask_b ~vaddr:(i * 64) ~paddr:(i * 64) ~write:false)
  done;
  (* B floods: it may only displace its own lines; A's survive. *)
  for i = 8 to 31 do
    ignore (Cache.access_masked_fast c ~alloc_ways:mask_b ~vaddr:(i * 64) ~paddr:(i * 64) ~write:false)
  done;
  for i = 0 to 3 do
    Alcotest.(check bool) "class A line survives B's flood" true
      (Cache.probe c ~vaddr:(i * 64) ~paddr:(i * 64))
  done;
  (* Hits cross classes: B can still *read* an A-allocated line. *)
  Alcotest.(check bool) "cross-class hit" true
    (Cache.access_masked_fast c ~alloc_ways:mask_b ~vaddr:0 ~paddr:0
       ~write:false)

let test_machine_clflush_globally_evicts () =
  let m = Machine.create Platform.haswell in
  ignore (Machine.access m ~core:0 ~asid:1 ~vaddr:0x5000 ~paddr:0x5000 ~kind:Defs.Read ());
  ignore (Machine.access m ~core:1 ~asid:2 ~vaddr:0x5000 ~paddr:0x5000 ~kind:Defs.Read ());
  let cost = Machine.clflush m ~core:0 ~paddr:0x5000 in
  Alcotest.(check bool) "clflush costs cycles" true (cost > 0);
  Alcotest.(check bool) "gone from LLC" false
    (Cache.probe (Machine.llc m) ~vaddr:0x5000 ~paddr:0x5000);
  Alcotest.(check bool) "gone from the other core's L1 too" false
    (Cache.probe (Machine.l1d m ~core:1) ~vaddr:0x5000 ~paddr:0x5000);
  (* The next access pays the full miss again. *)
  let lat = Machine.access m ~core:1 ~asid:2 ~vaddr:0x5000 ~paddr:0x5000 ~kind:Defs.Read () in
  Alcotest.(check bool) "reload is a full miss" true (lat > 100)

let test_dram_bank_hash_unpartitionable () =
  (* The §2.2 point behind the row-buffer channel: page colouring
     constrains frame mod n_colours, but the hashed bank selector still
     spreads any colour class over every bank. *)
  let cfg = Platform.haswell.Platform.dram in
  let banks_seen = Hashtbl.create 8 in
  for frame = 0 to 4095 do
    if frame mod 8 = 3 (* one colour class *) then
      Hashtbl.replace banks_seen (Dram.bank_of cfg ~paddr:(frame * 4096)) ()
  done;
  Alcotest.(check int) "one colour reaches all banks" cfg.Dram.banks
    (Hashtbl.length banks_seen)

let qcheck_clflush_then_miss =
  QCheck.Test.make ~name:"clflush forces the next access to miss" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun a ->
      let a = a land lnot 63 in
      let m = Machine.create Platform.haswell in
      ignore (Machine.access m ~core:0 ~asid:1 ~vaddr:a ~paddr:a ~kind:Defs.Read ());
      ignore (Machine.clflush m ~core:0 ~paddr:a);
      Machine.access m ~core:0 ~asid:1 ~vaddr:a ~paddr:a ~kind:Defs.Read () > 50)

let test_platform_table1 () =
  let h = Platform.haswell in
  Alcotest.(check int) "haswell colours (L2)" 8 (Platform.colours h);
  Alcotest.(check int) "haswell LLC colours" 128 (Platform.llc_colours h);
  let s = Platform.sabre in
  Alcotest.(check int) "sabre colours (L2=LLC)" 16 (Platform.colours s);
  Alcotest.(check bool) "sabre has L1 flush instr" true s.Platform.has_l1_flush_instr;
  Alcotest.(check bool) "haswell lacks L1 flush instr" false
    h.Platform.has_l1_flush_instr;
  Alcotest.(check (float 1e-6)) "cycles->us" 1.0 (Platform.cycles_to_us h 3400)

let qcheck_cache_occupancy_bounded =
  QCheck.Test.make ~name:"cache occupancy never exceeds capacity" ~count:50
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 400) (int_bound 100_000)))
    (fun (_, addrs) ->
      let c = Cache.create { Cache.size = 4096; ways = 4; line = 64; indexing = Cache.Physical } in
      List.iter
        (fun a -> ignore (Cache.access_fast c ~vaddr:a ~paddr:a ~write:(a land 1 = 1)))
        addrs;
      Cache.valid_lines c <= Cache.capacity_lines c
      && Cache.dirty_lines c <= Cache.valid_lines c)

let qcheck_cache_flush_empties =
  QCheck.Test.make ~name:"flush always empties the cache" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 200) (int_bound 100_000))
    (fun addrs ->
      let c = Cache.create { Cache.size = 8192; ways = 2; line = 64; indexing = Cache.Virtual } in
      List.iter (fun a -> ignore (Cache.access_fast c ~vaddr:a ~paddr:a ~write:true)) addrs;
      ignore (Cache.flush c);
      Cache.valid_lines c = 0 && Cache.dirty_lines c = 0)

let qcheck_access_after_access_hits =
  QCheck.Test.make ~name:"immediate re-access always hits" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun a ->
      let c = mk () in
      ignore (Cache.access_fast c ~vaddr:a ~paddr:a ~write:false);
      Cache.access_fast c ~vaddr:a ~paddr:a ~write:false)

let qcheck_tlb_occupancy =
  QCheck.Test.make ~name:"tlb occupancy bounded" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 300) (int_bound 10_000))
    (fun vpns ->
      let t = Tlb.create { Tlb.entries = 64; ways = 4 } in
      List.iter (fun v -> ignore (Tlb.access t ~asid:1 ~vpn:v ~global:false)) vpns;
      Tlb.valid_entries t <= 64)

let suite =
  [
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
    Alcotest.test_case "cache miss then hit" `Quick test_cache_miss_then_hit;
    Alcotest.test_case "cache same line hits" `Quick test_cache_same_line_hits;
    Alcotest.test_case "cache conflict eviction" `Quick test_cache_conflict_eviction;
    Alcotest.test_case "cache LRU order" `Quick test_cache_lru_order;
    Alcotest.test_case "cache dirty flush" `Quick test_cache_dirty_flush;
    Alcotest.test_case "cache write-hit dirties" `Quick test_cache_write_hit_dirties;
    Alcotest.test_case "cache eviction address" `Quick test_cache_eviction_reports_address;
    Alcotest.test_case "cache indexing policy" `Quick test_cache_virtual_vs_physical_indexing;
    Alcotest.test_case "cache insert clean" `Quick test_cache_insert_clean;
    Alcotest.test_case "tlb hit/miss/asid" `Quick test_tlb_hit_miss_and_asid;
    Alcotest.test_case "tlb global entries" `Quick test_tlb_global_crosses_asids;
    Alcotest.test_case "tlb flush_asid spares global" `Quick test_tlb_flush_asid_spares_global;
    Alcotest.test_case "tlb 1-way conflicts" `Quick test_tlb_conflict_one_way;
    Alcotest.test_case "tlb flush all" `Quick test_tlb_flush_all;
    Alcotest.test_case "btb trains" `Quick test_btb_predicts_after_training;
    Alcotest.test_case "btb flush" `Quick test_btb_flush;
    Alcotest.test_case "btb conflicts" `Quick test_btb_conflict;
    Alcotest.test_case "bhb learns" `Quick test_bhb_learns_pattern;
    Alcotest.test_case "bhb flush" `Quick test_bhb_flush_resets;
    Alcotest.test_case "prefetcher stream" `Quick test_prefetcher_stream_detection;
    Alcotest.test_case "prefetcher page boundary" `Quick test_prefetcher_page_boundary;
    Alcotest.test_case "prefetcher disable" `Quick test_prefetcher_disabled;
    Alcotest.test_case "prefetcher residual state" `Quick
      test_prefetcher_state_survives_and_aliases;
    Alcotest.test_case "dram row buffer" `Quick test_dram_row_buffer;
    Alcotest.test_case "interconnect contention" `Quick test_interconnect_contention;
    Alcotest.test_case "interconnect partitioned" `Quick test_interconnect_partitioned;
    Alcotest.test_case "machine latency orders" `Quick test_machine_latency_orders;
    Alcotest.test_case "machine cycle accounting" `Quick test_machine_cycles_accumulate;
    Alcotest.test_case "machine LLC back-invalidation" `Quick
      test_machine_llc_back_invalidation;
    Alcotest.test_case "machine flush ops" `Quick test_machine_flush_ops;
    Alcotest.test_case "machine flush cost vs dirtiness" `Quick
      test_machine_flush_cost_depends_on_dirtiness;
    Alcotest.test_case "cache masked allocation (CAT)" `Quick
      test_cache_masked_allocation;
    Alcotest.test_case "clflush global eviction" `Quick
      test_machine_clflush_globally_evicts;
    Alcotest.test_case "dram bank hash vs colouring" `Quick
      test_dram_bank_hash_unpartitionable;
    QCheck_alcotest.to_alcotest qcheck_clflush_then_miss;
    Alcotest.test_case "platform table 1" `Quick test_platform_table1;
    QCheck_alcotest.to_alcotest qcheck_cache_occupancy_bounded;
    QCheck_alcotest.to_alcotest qcheck_cache_flush_empties;
    QCheck_alcotest.to_alcotest qcheck_access_after_access_hits;
    QCheck_alcotest.to_alcotest qcheck_tlb_occupancy;
  ]
