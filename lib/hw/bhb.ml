type geometry = { history_bits : int; pht_entries : int }

(* Every mutable model word lives in [b], laid out as [pht | history]:
   the 2-bit saturating counters (0..3; >=2 predicts taken), then the
   global history register. *)
type t = {
  g : geometry;
  b : int array;
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_predicted : Tp_obs.Counter.t;
  st_mispredicted : Tp_obs.Counter.t;
  st_flushes : Tp_obs.Counter.t;
}

(* 2-bit saturating counters: reset value (weakly not-taken) and the
   predict-taken threshold, exposed for the certifier's PHT-interval
   abstraction. *)
let init_counter = 1
let taken_threshold = 2

(* The pure gshare index hash, exposed so the certifier can fold a
   lifted branch trace through the same placement function. *)
let index_of g ~history addr =
  (history lxor (addr lsr 2)) land (g.pht_entries - 1)

let create ?(name = "bhb") g =
  assert (Defs.is_pow2 g.pht_entries);
  assert (g.history_bits > 0 && g.history_bits < 30);
  let st = Tp_obs.Counter.make_set name in
  let st_predicted = Tp_obs.Counter.counter st "predicted" in
  let st_mispredicted = Tp_obs.Counter.counter st "mispredicted" in
  let st_flushes = Tp_obs.Counter.counter st "flushes" in
  let b = Array.make (g.pht_entries + 1) init_counter in
  b.(g.pht_entries) <- 0;
  { g; b; st; st_predicted; st_mispredicted; st_flushes }

let counters t = t.st

type result = Predicted | Mispredicted

let history t = t.b.(t.g.pht_entries)

let branch t ~addr ~taken =
  let h = history t in
  let i = index_of t.g ~history:h addr in
  let c = t.b.(i) in
  let predicted_taken = c >= taken_threshold in
  let result = if predicted_taken = taken then Predicted else Mispredicted in
  (match result with
  | Predicted -> Tp_obs.Counter.incr t.st_predicted
  | Mispredicted -> Tp_obs.Counter.incr t.st_mispredicted);
  t.b.(i) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
  t.b.(t.g.pht_entries) <-
    ((h lsl 1) lor (if taken then 1 else 0)) land ((1 lsl t.g.history_bits) - 1);
  result

let flush t =
  Tp_obs.Counter.incr t.st_flushes;
  Array.fill t.b 0 t.g.pht_entries init_counter;
  t.b.(t.g.pht_entries) <- 0

let parts t = [ Blob.Words t.b; Blob.Counters t.st ]
