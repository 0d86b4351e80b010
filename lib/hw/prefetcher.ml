(* Every mutable model word lives in [b]: one four-word tracker per
   slot, [ptag last_line dir confidence] (ptag: partial page tag, 2
   bits, -1 = invalid; last_line: last line offset seen within the
   page; dir: +1 / -1; confidence: saturates at [confirm]), then the
   [enabled] flag (0/1). *)
type t = {
  slots : int;
  degree : int;
  (* Shift widths, computed once so that an access divides nothing:
     log2 of [slots] and of the line size, and the lines per page. *)
  slot_bits : int;
  line_bits : int;
  lines_per_page : int;
  b : int array;
  (* The lines the last [on_access] suggested, as many as it returned.
     Scratch, not model state: it is consumed before the next access,
     so it is no snapshot part. *)
  out : int array;
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_issued : Tp_obs.Counter.t;
  st_allocs : Tp_obs.Counter.t;
  st_filtered : Tp_obs.Counter.t;
  st_resets : Tp_obs.Counter.t;
}

let confirm = 2
let partial_tag_bits = 2

let[@inline] get (b : int array) i = Array.unsafe_get b i
let[@inline] set (b : int array) i v = Array.unsafe_set b i v

(* Tracker fields, relative to [4 * slot], which is in bounds by
   construction ([slot_of] masks by the pow-2 [slots - 1]). *)
let ptag = 0
let last_line = 1
let dir = 2
let confidence = 3

let reset_trackers t =
  for s = 0 to t.slots - 1 do
    let o = 4 * s in
    t.b.(o + ptag) <- -1;
    t.b.(o + last_line) <- 0;
    t.b.(o + dir) <- 1;
    t.b.(o + confidence) <- 0
  done

let set_enabled t e = set t.b (4 * t.slots) (Bool.to_int e)
let enabled t = get t.b (4 * t.slots) <> 0

let create ?(name = "prefetcher") ~slots ~degree ~line () =
  assert (Defs.is_pow2 slots);
  assert (degree > 0);
  assert (Defs.is_pow2 line && line <= Defs.page_size);
  let st = Tp_obs.Counter.make_set name in
  let st_issued = Tp_obs.Counter.counter st "lines_issued" in
  let st_allocs = Tp_obs.Counter.counter st "tracker_allocs" in
  let st_filtered = Tp_obs.Counter.counter st "alloc_filtered" in
  let st_resets = Tp_obs.Counter.counter st "hard_resets" in
  let t =
    {
      slots;
      degree;
      slot_bits = Defs.log2 slots;
      line_bits = Defs.log2 line;
      lines_per_page = Defs.page_size / line;
      b = Array.make ((4 * slots) + 1) 0;
      out = Array.make degree 0;
      st;
      st_issued;
      st_allocs;
      st_filtered;
      st_resets;
    }
  in
  reset_trackers t;
  set_enabled t true;
  t

let counters t = t.st

(* Tracker index: a hash over the page number, not its low bits.  Real
   prefetchers fold higher address bits into their indexing, so page
   colouring — which fixes only the low page bits — cannot partition
   the tracker table.  (If the index were [page mod slots], disjoint
   colour sets would imply disjoint slot sets and the §5.3.2 residual
   channel could not exist.) *)
let slot_of t ~page =
  (page lxor (page lsr 4) lxor (page lsr 9)) land (t.slots - 1)

let suggestion t i = t.out.(i)

let on_access t ~paddr =
  if not (enabled t) then 0
  else begin
    let b = t.b in
    let page = Defs.page_of paddr in
    let line_off = Defs.page_offset paddr lsr t.line_bits in
    let o = 4 * slot_of t ~page in
    let tag = (page lsr t.slot_bits) land ((1 lsl partial_tag_bits) - 1) in
    if get b (o + ptag) = tag then begin
      let d = get b (o + dir) in
      let delta = line_off - get b (o + last_line) in
      if delta = d && delta <> 0 then
        set b (o + confidence) (Int.min confirm (get b (o + confidence) + 1))
      else if delta = -d && delta <> 0 then begin
        set b (o + dir) (-d);
        set b (o + confidence) 1
      end
      else if delta <> 0 then
        set b (o + confidence) (Int.max 0 (get b (o + confidence) - 1));
      set b (o + last_line) line_off;
      if get b (o + confidence) >= confirm then begin
        (* Confirmed stream: prefetch [degree] lines ahead, staying
           within the page (real prefetchers stop at page boundaries). *)
        let d = get b (o + dir) in
        let n = ref 0 in
        let next = ref (line_off + d) in
        while !n < t.degree && !next >= 0 && !next < t.lines_per_page do
          set t.out !n ((page lsl Defs.page_bits) + (!next lsl t.line_bits));
          incr n;
          next := !next + d
        done;
        Tp_obs.Counter.add t.st_issued !n;
        !n
      end
      else 0
    end
    else begin
      (* Allocation filter: an incumbent stream with confidence resists
         immediate replacement (real prefetchers require repeated
         misses in a new region before stealing a trained tracker).
         The filter is what makes tracker state observable across a
         domain switch: a tracker the previous domain degraded to zero
         confidence re-allocates instantly, while an intact one costs
         extra unprefetched accesses to displace — a per-page timing
         difference the next domain can read back. *)
      if get b (o + ptag) <> -1 && get b (o + confidence) > 0 then begin
        Tp_obs.Counter.incr t.st_filtered;
        set b (o + confidence) (get b (o + confidence) - 1);
        0
      end
      else begin
        Tp_obs.Counter.incr t.st_allocs;
        set b (o + ptag) tag;
        set b (o + last_line) line_off;
        set b (o + dir) 1;
        set b (o + confidence) 0;
        0
      end
    end
  end

let trained_slots t =
  let n = ref 0 in
  for s = 0 to t.slots - 1 do
    let o = 4 * s in
    if t.b.(o + ptag) <> -1 && t.b.(o + confidence) >= confirm then incr n
  done;
  !n

let hard_reset t =
  Tp_obs.Counter.incr t.st_resets;
  reset_trackers t

let parts t = [ Blob.Words t.b; Blob.Counters t.st ]
