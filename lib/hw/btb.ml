type geometry = { entries : int; ways : int }

(* Every mutable model word lives in [b], laid out as
   [tags | targets | age | clock n_valid]: three [entries]-long regions
   indexed by set * ways + way (tag = branch address, -1 = invalid),
   then the scalars. *)
type t = {
  g : geometry;
  n_sets : int;
  b : int array;
  (* Word offsets of the target and age regions and of the scalars. *)
  target0 : int;
  age0 : int;
  sc : int;
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_predicted : Tp_obs.Counter.t;
  st_mispredicted : Tp_obs.Counter.t;
  st_flushes : Tp_obs.Counter.t;
}

let[@inline] get (b : int array) i = Array.unsafe_get b i
let[@inline] set (b : int array) i v = Array.unsafe_set b i v

(* Scalar words, relative to [sc]. *)
let clock = 0
let n_valid = 1

(* Branch addresses are instruction-granular; use 4-byte granularity for
   the index so consecutive branch slots map to consecutive sets. *)
let index_shift = 2

let geometry_sets g = g.entries / g.ways

(* The pure index hash, exposed so the certifier can fold a lifted
   branch trace through the same placement function the model uses. *)
let set_of_addr g addr = (addr lsr index_shift) land (geometry_sets g - 1)

let create ?(name = "btb") g =
  assert (Defs.is_pow2 g.entries && Defs.is_pow2 g.ways);
  let n_sets = g.entries / g.ways in
  let n = g.entries in
  let st = Tp_obs.Counter.make_set name in
  let st_predicted = Tp_obs.Counter.counter st "predicted" in
  let st_mispredicted = Tp_obs.Counter.counter st "mispredicted" in
  let st_flushes = Tp_obs.Counter.counter st "flushes" in
  let b = Array.make ((3 * n) + 2) 0 in
  Array.fill b 0 n (-1);
  {
    g;
    n_sets;
    b;
    target0 = n;
    age0 = 2 * n;
    sc = 3 * n;
    st;
    st_predicted;
    st_mispredicted;
    st_flushes;
  }

let counters t = t.st

type result = Predicted | Mispredicted

let set_of t addr = (addr lsr index_shift) land (t.n_sets - 1)

let find t addr =
  let b = t.b in
  let base = set_of t addr * t.g.ways in
  let stop = base + t.g.ways in
  let i = ref base in
  while !i < stop && get b !i <> addr do
    incr i
  done;
  if !i < stop then !i else -1

let lru_way t s =
  let b = t.b and age0 = t.age0 in
  let base = s * t.g.ways in
  let best = ref base in
  for w = 1 to t.g.ways - 1 do
    let i = base + w in
    let older = get b (age0 + i) < get b (age0 + !best) in
    if get b i = -1 then begin
      if get b !best <> -1 || older then best := i
    end
    else if get b !best <> -1 && older then best := i
  done;
  !best

let branch t ~addr ~target =
  let b = t.b in
  let now = get b (t.sc + clock) + 1 in
  set b (t.sc + clock) now;
  let i = find t addr in
  if i >= 0 && get b (t.target0 + i) = target then begin
    Tp_obs.Counter.incr t.st_predicted;
    set b (t.age0 + i) now;
    Predicted
  end
  else begin
    Tp_obs.Counter.incr t.st_mispredicted;
    let i = if i >= 0 then i else lru_way t (set_of t addr) in
    if get b i = -1 then set b (t.sc + n_valid) (get b (t.sc + n_valid) + 1);
    set b i addr;
    set b (t.target0 + i) target;
    set b (t.age0 + i) now;
    Mispredicted
  end

let flush t =
  Tp_obs.Counter.incr t.st_flushes;
  Array.fill t.b 0 t.g.entries (-1);
  set t.b (t.sc + n_valid) 0

let valid_entries t = get t.b (t.sc + n_valid)

let parts t = [ Blob.Words t.b; Blob.Counters t.st ]
