type geometry = { entries : int; ways : int }

(* Every mutable model word lives in [b], laid out as
   [vpns | asids | globals | age | clock n_valid]: four [entries]-long
   regions indexed by set * ways + way (vpn -1 = invalid, global 0/1),
   then the scalars. *)
type t = {
  g : geometry;
  n_sets : int;
  b : int array;
  (* Word offsets of the asid, global and age regions and of the
     scalars. *)
  asid0 : int;
  global0 : int;
  age0 : int;
  sc : int;
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_hits : Tp_obs.Counter.t;
  st_misses : Tp_obs.Counter.t;
  st_flushes : Tp_obs.Counter.t;
  st_asid_flushes : Tp_obs.Counter.t;
}

let[@inline] get (b : int array) i = Array.unsafe_get b i
let[@inline] set (b : int array) i v = Array.unsafe_set b i v

(* Scalar words, relative to [sc]. *)
let clock = 0
let n_valid = 1

let create ?(name = "tlb") g =
  assert (Defs.is_pow2 g.entries && Defs.is_pow2 g.ways);
  assert (g.entries >= g.ways);
  let n_sets = g.entries / g.ways in
  let n = g.entries in
  let st = Tp_obs.Counter.make_set name in
  let st_hits = Tp_obs.Counter.counter st "hits" in
  let st_misses = Tp_obs.Counter.counter st "misses" in
  let st_flushes = Tp_obs.Counter.counter st "flushes" in
  let st_asid_flushes = Tp_obs.Counter.counter st "asid_flushes" in
  let b = Array.make ((4 * n) + 2) 0 in
  Array.fill b 0 (2 * n) (-1);
  {
    g;
    n_sets;
    b;
    asid0 = n;
    global0 = 2 * n;
    age0 = 3 * n;
    sc = 4 * n;
    st;
    st_hits;
    st_misses;
    st_flushes;
    st_asid_flushes;
  }

let counters t = t.st

let geometry t = t.g
let sets t = t.n_sets

type result = Hit | Miss

let set_of t vpn = vpn land (t.n_sets - 1)

(* Unchecked reads are in bounds by construction: each region holds
   [n_sets * ways] words, [set] is masked by the pow-2 [n_sets - 1]
   and [w < ways]. *)
let find t ~asid ~vpn =
  let b = t.b and global0 = t.global0 and asid0 = t.asid0 in
  let base = set_of t vpn * t.g.ways in
  let stop = base + t.g.ways in
  let i = ref base in
  while
    !i < stop
    && not
         (get b !i = vpn
         && (get b (global0 + !i) <> 0 || get b (asid0 + !i) = asid))
  do
    incr i
  done;
  if !i < stop then !i else -1

(* First invalid way wins outright (LRU among invalids is
   meaningless); otherwise lowest age. *)
let lru_way t set =
  let b = t.b and age0 = t.age0 in
  let base = set * t.g.ways in
  if get b base = -1 then base
  else begin
    let best = ref base and best_age = ref (get b (age0 + base)) in
    let found = ref (-1) in
    let w = ref 1 in
    while !found < 0 && !w < t.g.ways do
      let i = base + !w in
      if get b i = -1 then found := i
      else begin
        let a = get b (age0 + i) in
        if a < !best_age then begin
          best := i;
          best_age := a
        end
      end;
      incr w
    done;
    if !found >= 0 then !found else !best
  end

let access t ~asid ~vpn ~global =
  let b = t.b in
  let i = find t ~asid ~vpn in
  let now = get b (t.sc + clock) + 1 in
  set b (t.sc + clock) now;
  if i >= 0 then begin
    Tp_obs.Counter.incr t.st_hits;
    set b (t.age0 + i) now;
    Hit
  end
  else begin
    Tp_obs.Counter.incr t.st_misses;
    let i = lru_way t (set_of t vpn) in
    if get b i = -1 then set b (t.sc + n_valid) (get b (t.sc + n_valid) + 1);
    set b i vpn;
    set b (t.asid0 + i) asid;
    set b (t.global0 + i) (Bool.to_int global);
    set b (t.age0 + i) now;
    Miss
  end

let probe t ~asid ~vpn = find t ~asid ~vpn >= 0

let flush_all t =
  Tp_obs.Counter.incr t.st_flushes;
  Array.fill t.b 0 t.g.entries (-1);
  Array.fill t.b t.global0 t.g.entries 0;
  set t.b (t.sc + n_valid) 0

let flush_asid t asid =
  let b = t.b in
  Tp_obs.Counter.incr t.st_asid_flushes;
  for i = 0 to t.g.entries - 1 do
    if
      get b i <> -1
      && get b (t.global0 + i) = 0
      && get b (t.asid0 + i) = asid
    then begin
      set b i (-1);
      set b (t.sc + n_valid) (get b (t.sc + n_valid) - 1)
    end
  done

let valid_entries t = get t.b (t.sc + n_valid)

let parts t = [ Blob.Words t.b; Blob.Counters t.st ]
