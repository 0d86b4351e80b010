(* Shrunken platform variants for small-scope model checking.

   The exhaustive noninterference check (Tp_analysis.Certify) needs a
   machine small enough that every two-domain schedule can be
   enumerated, yet structurally faithful: the same cache hierarchy
   shape as the parent platform (private L2 present iff the parent has
   one), physically-indexed outer levels that still support two page
   colours, fully-associative tiny TLBs (so page-granular contention is
   observable at all), and a gshare predictor with a short history.

   Two invariants matter for soundness of the shrink:

   - every physically-indexed cache satisfies [sets * line =
     colours * page_size] with [colours = 2], so placing one domain on
     even pages and the other on odd pages is exactly the partition a
     2-colour allocation would produce;
   - the stream prefetcher is absent ([prefetcher_slots = 0]).  Its
     tracker state has no architected flush (the paper's Section 5.3.2
     residual), so it is outside the five certified channels; keeping
     it would make even a fully-flushed machine nondeterministic and
     the small-scope check vacuous. *)

let page = Defs.page_size

let tiny (p : Platform.t) =
  let line = p.Platform.line in
  let l1 =
    { Cache.size = 512; ways = 2; line; indexing = Cache.Virtual }
  in
  (* [size = 2 * ways * page_size] gives [colours = size / (ways *
     page_size) = 2] whatever the line size. *)
  let outer ways =
    { Cache.size = 2 * ways * page; ways; line; indexing = Cache.Physical }
  in
  {
    p with
    Platform.name = p.Platform.name ^ "-shrunk";
    l1d = l1;
    l1i = l1;
    l2 = Option.map (fun _ -> outer 2) p.Platform.l2;
    llc = outer 2;
    (* Fully associative: every page contends with every other, so the
       TLB channel is not accidentally closed by set partitioning. *)
    itlb = { Tlb.entries = 4; ways = 4 };
    dtlb = { Tlb.entries = 4; ways = 4 };
    l2tlb = { Tlb.entries = 8; ways = 8 };
    btb = { Btb.entries = 8; ways = 2 };
    bhb = { Bhb.history_bits = 4; pht_entries = 16 };
    prefetcher_slots = 0;
    prefetcher_degree = 0;
  }

(* Further small geometries for property tests (the Bounds-domination
   QCheck sweeps them): same shape constraints, different sizes and
   associativities. *)
let variants (p : Platform.t) =
  let line = p.Platform.line in
  let t = tiny p in
  let with_l1 ways sets pp =
    let l1 =
      { Cache.size = ways * sets * line; ways; line; indexing = Cache.Virtual }
    in
    { pp with Platform.l1d = l1; l1i = l1 }
  in
  let with_outer ways pp =
    let g =
      { Cache.size = 2 * ways * page; ways; line; indexing = Cache.Physical }
    in
    {
      pp with
      Platform.l2 = Option.map (fun _ -> g) pp.Platform.l2;
      llc = g;
    }
  in
  [
    t;
    with_l1 1 8 t;
    with_l1 4 4 (with_outer 4 t);
    { (with_outer 1 t) with Platform.dtlb = { Tlb.entries = 8; ways = 2 } };
  ]

(* ------------------------------------------------------------------ *)
(* Schedule enumeration                                                *)

(* Letter d of the alphabet acts for domain d.  'A' (the attacker) is
   digit 0 so that, with [domains = 2], schedule i spells bit j of i as
   'V' when set and 'A' when clear — exactly the enumeration the
   original two-domain exhaustive check used, keeping its golden
   counterexamples stable. *)
let schedule_letters = "AVD"

let schedules ~domains ~horizon =
  if domains < 2 || domains > String.length schedule_letters then
    invalid_arg "Shrink.schedules: domains out of range";
  if horizon < 1 || horizon > 16 then
    invalid_arg "Shrink.schedules: horizon out of range";
  let total =
    let rec pow acc n = if n = 0 then acc else pow (acc * domains) (n - 1) in
    pow 1 horizon
  in
  List.init total (fun i ->
      String.init horizon (fun j ->
          let rec digit v k = if k = 0 then v mod domains else digit (v / domains) (k - 1) in
          schedule_letters.[digit i j]))

(* ------------------------------------------------------------------ *)
(* Machine-level switch scrub                                          *)

let apply m ~core plan =
  List.fold_left (fun acc step -> acc + Machine.flush_step m ~core step) 0 plan

let bound p plan =
  List.fold_left (fun acc step -> acc + Bounds.flush_step_bound p step) 0 plan

(* ------------------------------------------------------------------ *)
(* Machine-level lifecycle operations                                  *)

(* The per-path exhaustive check replaces the neutral neighbour turn
   with a machine-level image of the kernel operation under test.  The
   ops are deliberately sequential (whole-page read sweep, then a
   whole-page write sweep) so the analytic bounds below — built from
   the same sequential Bounds.sweep model the pad bound uses — dominate
   them on any reachable machine state. *)

let clone_op m ~core ~asid ~src ~dst =
  let p = Machine.platform m in
  let line = p.Platform.line in
  let lines = page / line in
  let cost = ref 0 in
  for i = 0 to lines - 1 do
    let a = src + (i * line) in
    cost := !cost + Machine.access m ~core ~asid ~vaddr:a ~paddr:a ~kind:Defs.Read ()
  done;
  for i = 0 to lines - 1 do
    let a = dst + (i * line) in
    cost := !cost + Machine.access m ~core ~asid ~vaddr:a ~paddr:a ~kind:Defs.Write ()
  done;
  !cost

let clone_op_bound (p : Platform.t) =
  let lines = 2 * (page / p.Platform.line) in
  (2 * Bounds.sweep_cycles p ~bytes:page ())
  + Bounds.eviction_wb_bound p ~lines

let destroy_op m ~core ~asid ~barrier =
  let cost = ref 0 in
  cost :=
    !cost
    + Machine.access m ~core ~asid ~vaddr:barrier ~paddr:barrier
        ~kind:Defs.Write ();
  cost := !cost + Machine.flush_step m ~core Flush.Tlb;
  Machine.add_cycles m ~core Bounds.ipi_cost;
  cost := !cost + Bounds.ipi_cost;
  !cost

let destroy_op_bound (p : Platform.t) =
  Bounds.sweep_cycles p ~bytes:p.Platform.line ()
  + Bounds.eviction_wb_bound p ~lines:1
  + Bounds.tlb_flush_bound p + Bounds.ipi_cost
