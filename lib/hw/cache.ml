type indexing = Virtual | Physical

type geometry = { size : int; ways : int; line : int; indexing : indexing }

let sets g = g.size / (g.ways * g.line)
let colours g = max 1 (sets g * g.line / Defs.page_size)

(* Every mutable model word lives in [b], laid out as
   [tags | dirty | age | clock n_dirty n_valid ev_line ev_dirty]: three
   [lines]-long regions indexed by set * ways + way (tag -1 = invalid,
   dirty 0/1), then the scalars.  [ev_line]/[ev_dirty] are the victim
   of the last allocating miss, so the allocation-free access variants
   can report evictions without boxing a result. *)
type t = {
  g : geometry;
  n_sets : int;
  n_ways : int; (* copy of g.ways, one load instead of two on the hot path *)
  way_mask : int; (* (1 lsl ways) - 1 *)
  line_bits : int;
  lines : int;
  b : int array;
  (* Word offsets of the dirty and age regions and of the scalars. *)
  dirty0 : int;
  age0 : int;
  sc : int;
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_hits : Tp_obs.Counter.t;
  st_misses : Tp_obs.Counter.t;
  st_writebacks : Tp_obs.Counter.t;
  st_prefetch_fills : Tp_obs.Counter.t;
  st_invals : Tp_obs.Counter.t;
  st_flushes : Tp_obs.Counter.t;
  st_flush_writebacks : Tp_obs.Counter.t;
}

let[@inline] get (b : int array) i = Array.unsafe_get b i
let[@inline] set (b : int array) i v = Array.unsafe_set b i v

(* Scalar words, relative to [sc]. *)
let clock = 0
let n_dirty = 1
let n_valid = 2
let ev_line = 3
let ev_dirty = 4

let create ?(name = "cache") g =
  assert (Defs.is_pow2 g.size && Defs.is_pow2 g.ways && Defs.is_pow2 g.line);
  assert (g.size >= g.ways * g.line);
  let n_sets = sets g in
  let n = n_sets * g.ways in
  let st = Tp_obs.Counter.make_set name in
  (* Bound outside the record so the counters are declared (and hence
     printed) in this order. *)
  let st_hits = Tp_obs.Counter.counter st "hits" in
  let st_misses = Tp_obs.Counter.counter st "misses" in
  let st_writebacks = Tp_obs.Counter.counter st "writebacks" in
  let st_prefetch_fills = Tp_obs.Counter.counter st "prefetch_fills" in
  let st_invals = Tp_obs.Counter.counter st "invalidations" in
  let st_flushes = Tp_obs.Counter.counter st "flushes" in
  let st_flush_writebacks = Tp_obs.Counter.counter st "flush_writebacks" in
  let b = Array.make ((3 * n) + 5) 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set b i (-1)
  done;
  b.((3 * n) + ev_line) <- -1;
  {
    g;
    n_sets;
    n_ways = g.ways;
    way_mask = (1 lsl g.ways) - 1;
    line_bits = Defs.log2 g.line;
    lines = n;
    b;
    dirty0 = n;
    age0 = 2 * n;
    sc = 3 * n;
    st;
    st_hits;
    st_misses;
    st_writebacks;
    st_prefetch_fills;
    st_invals;
    st_flushes;
    st_flush_writebacks;
  }

let counters t = t.st

let geometry t = t.g

let set_of t ~vaddr ~paddr =
  let index_addr = match t.g.indexing with Virtual -> vaddr | Physical -> paddr in
  (index_addr lsr t.line_bits) land (t.n_sets - 1)

(* The tag is the full physical line address; since we never need to
   reconstruct set/tag splits this is simplest and collision-free. *)
let tag_of t ~paddr = paddr lsr t.line_bits

(* Way search, unrolled for the associativities the platforms actually
   use.  Unchecked reads are safe by construction: the tag region holds
   [n_sets * ways] words, [set] is masked by the pow-2 [n_sets - 1] and
   [w < ways], so [base + w] cannot escape. *)
let find_way t set tag =
  let b = t.b in
  let base = set * t.n_ways in
  match t.n_ways with
  | 1 -> if get b base = tag then base else -1
  | 2 ->
      if get b base = tag then base
      else if get b (base + 1) = tag then base + 1
      else -1
  | 4 ->
      if get b base = tag then base
      else if get b (base + 1) = tag then base + 1
      else if get b (base + 2) = tag then base + 2
      else if get b (base + 3) = tag then base + 3
      else -1
  | 8 ->
      if get b base = tag then base
      else if get b (base + 1) = tag then base + 1
      else if get b (base + 2) = tag then base + 2
      else if get b (base + 3) = tag then base + 3
      else if get b (base + 4) = tag then base + 4
      else if get b (base + 5) = tag then base + 5
      else if get b (base + 6) = tag then base + 6
      else if get b (base + 7) = tag then base + 7
      else -1
  | ways ->
      let stop = base + ways in
      let i = ref base in
      while !i < stop && get b !i <> tag do
        incr i
      done;
      if !i < stop then !i else -1

(* LRU victim within the ways allowed by [mask] (a bitmask over way
   indices).  The first invalid allowed way wins outright — LRU order
   among invalid ways is meaningless, so there is no reason to keep
   scanning once one is found. *)
let lru_way t set mask =
  let b = t.b and age0 = t.age0 and ways = t.n_ways in
  let base = set * ways in
  let best = ref (-1) and best_age = ref max_int in
  let found = ref (-1) in
  let w = ref 0 in
  while !found < 0 && !w < ways do
    (if (mask lsr !w) land 1 <> 0 then begin
       let i = base + !w in
       if get b i = -1 then found := i
       else begin
         let a = get b (age0 + i) in
         if a < !best_age then begin
           best := i;
           best_age := a
         end
       end
     end);
    incr w
  done;
  if !found >= 0 then !found
  else begin
    assert (!best >= 0);
    !best
  end

let[@inline] touch t i =
  let b = t.b in
  let c = get b (t.sc + clock) + 1 in
  set b (t.sc + clock) c;
  set b (t.age0 + i) c

(* Add [d] to scalar word [k]. *)
let[@inline] bump t k d =
  let b = t.b in
  set b (t.sc + k) (get b (t.sc + k) + d)

let alloc t s tag ~dirty ~mask ~obs =
  let b = t.b in
  let i = lru_way t s mask in
  let old = get b i in
  let evicted_dirty = old <> -1 && get b (t.dirty0 + i) <> 0 in
  set b (t.sc + ev_dirty) (Bool.to_int evicted_dirty);
  set b (t.sc + ev_line) (if old = -1 then -1 else old lsl t.line_bits);
  if evicted_dirty && obs then Tp_obs.Counter.incr_unchecked t.st_writebacks;
  if evicted_dirty <> dirty then
    bump t n_dirty (Bool.to_int dirty - Bool.to_int evicted_dirty);
  if old = -1 then bump t n_valid 1;
  set b i tag;
  set b (t.dirty0 + i) (Bool.to_int dirty);
  touch t i

(* Allocation-free access: returns [true] on hit; on miss the victim is
   left in the [ev_line]/[ev_dirty] words ({!last_evicted}/
   {!last_evicted_dirty}) instead of a boxed [Miss] record.  One
   counters_on check covers every recording of the access. *)
let access_masked_fast t ~alloc_ways ~vaddr ~paddr ~write =
  let mask = alloc_ways land t.way_mask in
  assert (mask <> 0);
  let obs = Tp_obs.Ctl.counters_on () in
  let s = set_of t ~vaddr ~paddr in
  let tag = tag_of t ~paddr in
  let i = find_way t s tag in
  if i >= 0 then begin
    if obs then Tp_obs.Counter.incr_unchecked t.st_hits;
    touch t i;
    if write && get t.b (t.dirty0 + i) = 0 then begin
      set t.b (t.dirty0 + i) 1;
      bump t n_dirty 1
    end;
    true
  end
  else begin
    if obs then Tp_obs.Counter.incr_unchecked t.st_misses;
    alloc t s tag ~dirty:write ~mask ~obs;
    false
  end

let access_fast t ~vaddr ~paddr ~write =
  access_masked_fast t ~alloc_ways:max_int ~vaddr ~paddr ~write

let last_evicted t = get t.b (t.sc + ev_line)
let last_evicted_dirty t = get t.b (t.sc + ev_dirty) <> 0

let probe t ~vaddr ~paddr =
  let s = set_of t ~vaddr ~paddr in
  find_way t s (tag_of t ~paddr) >= 0

let insert_clean_fast t ~vaddr ~paddr =
  let s = set_of t ~vaddr ~paddr in
  let tag = tag_of t ~paddr in
  let i = find_way t s tag in
  if i >= 0 then true
  else begin
    Tp_obs.Counter.incr t.st_prefetch_fills;
    alloc t s tag ~dirty:false ~mask:t.way_mask
      ~obs:(Tp_obs.Ctl.counters_on ());
    false
  end

let invalidate_line t ~vaddr ~paddr =
  let s = set_of t ~vaddr ~paddr in
  let i = find_way t s (tag_of t ~paddr) in
  if i >= 0 then begin
    Tp_obs.Counter.incr t.st_invals;
    if get t.b (t.dirty0 + i) <> 0 then bump t n_dirty (-1);
    set t.b (t.dirty0 + i) 0;
    set t.b i (-1);
    bump t n_valid (-1)
  end

let flush t =
  let wb = get t.b (t.sc + n_dirty) in
  Tp_obs.Counter.incr t.st_flushes;
  Tp_obs.Counter.add t.st_flush_writebacks wb;
  Array.fill t.b 0 t.lines (-1);
  Array.fill t.b t.dirty0 (2 * t.lines) 0;
  set t.b (t.sc + n_dirty) 0;
  set t.b (t.sc + n_valid) 0;
  wb

let parts t = [ Blob.Words t.b; Blob.Counters t.st ]

let dirty_lines t = get t.b (t.sc + n_dirty)
let valid_lines t = get t.b (t.sc + n_valid)

let capacity_lines t = t.lines

let pp_geometry ppf g =
  Format.fprintf ppf "%dKiB %d-way %dB-line (%d sets, %d colours, %s-indexed)"
    (g.size / 1024) g.ways g.line (sets g) (colours g)
    (match g.indexing with Virtual -> "virtually" | Physical -> "physically")
