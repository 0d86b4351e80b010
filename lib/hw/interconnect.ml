type mode = Open | Partitioned | Mba of float

(* Every mutable model word lives in [b], laid out as
   [last | run_start | mode tag]: per core the cycle of its previous
   transaction and the start of its current activity run, then the
   mode (0 Open, 1 Partitioned, 2 Mba).  The float state sits beside
   it: the EWMA rates and the Mba limit (0.0 in the other modes). *)
type t = {
  cores : int;
  rate : float array; (* per-core issue rate, transactions/cycle (EWMA) *)
  slow_rate : float array; (* long-horizon average, the MBA meter *)
  b : int array;
  limit : float array; (* one element *)
  service : float; (* bus service rate, transactions/cycle *)
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_transactions : Tp_obs.Counter.t;
  st_stalled : Tp_obs.Counter.t;
  st_stall_cycles : Tp_obs.Counter.t;
}

let ewma_alpha = 0.2
let slow_alpha = 0.01
let delay_scale = 50.0

(* A core's traffic only contends with transactions that are actually
   in flight around the same time: another core whose last issue is
   older than this window is quiescent — a bus queue drains within a
   few service periods.  (Per-core clocks are comparable as global
   time because the execution drivers advance every core each round;
   manual cross-core drivers keep them aligned explicitly.) *)
let active_window = 3_000

(* A gap longer than this ends an activity run (the core went quiet —
   preempted, sleeping, compute-bound). *)
let run_gap = 50_000

let mode_word t = 2 * t.cores

let set_mode t m =
  let tag, l =
    match m with Open -> (0, 0.0) | Partitioned -> (1, 0.0) | Mba l -> (2, l)
  in
  t.b.(mode_word t) <- tag;
  t.limit.(0) <- l

let set_partitioned t p = set_mode t (if p then Partitioned else Open)

let create ?(name = "bus") ~cores ~window ~slots_per_window () =
  assert (cores > 0 && window > 0 && slots_per_window > 0);
  let st = Tp_obs.Counter.make_set name in
  let st_transactions = Tp_obs.Counter.counter st "transactions" in
  let st_stalled = Tp_obs.Counter.counter st "stalled" in
  let st_stall_cycles = Tp_obs.Counter.counter st "stall_cycles" in
  let t =
    {
      cores;
      rate = Array.make cores 0.0;
      slow_rate = Array.make cores 0.0;
      b = Array.make ((2 * cores) + 1) (-1);
      limit = [| 0.0 |];
      service = float_of_int slots_per_window /. float_of_int window;
      st;
      st_transactions;
      st_stalled;
      st_stall_cycles;
    }
  in
  set_mode t Open;
  t

let counters t = t.st

let last t core = t.b.(core)
let run_start t core = t.b.(t.cores + core)

(* Cores have independent clocks, so each core's issue rate is derived
   from its own inter-transaction gaps; the queueing delay of a
   transaction grows with the total offered rate beyond the bus's
   service rate (a linear M/D/1 flavour).  Under the hypothetical
   bandwidth partition each core is measured against its own share
   only, so other cores' traffic cannot influence its delay. *)
let record t ~core ~now =
  assert (core >= 0 && core < t.cores);
  let dt =
    if last t core < 0 then max_int else Stdlib.max 1 (now - last t core)
  in
  if dt > run_gap then t.b.(t.cores + core) <- now;
  t.b.(core) <- now;
  let inst = if dt = max_int then 0.0 else 1.0 /. float_of_int dt in
  (* The fast estimator tracks the within-burst issue rate: a gap
     longer than the queueing horizon means the core was descheduled
     or computing, not that the bus saw a slower stream, so it leaves
     the estimate alone.  The MBA meter, by contrast, is charged for
     gaps — it measures sustained bandwidth. *)
  if dt <= active_window then
    t.rate.(core) <- ((1.0 -. ewma_alpha) *. t.rate.(core)) +. (ewma_alpha *. inst);
  t.slow_rate.(core) <-
    ((1.0 -. slow_alpha) *. t.slow_rate.(core)) +. (slow_alpha *. inst);
  (* Sum of the offered rates of cores whose current activity run
     covers this instant: a run is [run_start, last], padded by the
     queue-drain window on both sides.  Summed inline (the Partitioned
     mode ignores it) so the per-transaction path allocates nothing. *)
  let live_sum = ref 0.0 in
  for j = 0 to t.cores - 1 do
    if
      j = core
      || (last t j >= 0
         && now >= run_start t j - active_window
         && now <= last t j + active_window)
    then live_sum := !live_sum +. t.rate.(j)
  done;
  let delay =
    match t.b.(mode_word t) with
    | 1 (* Partitioned *) ->
        let offered = t.rate.(core) *. float_of_int t.cores in
        let overload = offered -. t.service in
        if overload > 0.0 then int_of_float (overload /. t.service *. delay_scale)
        else 0
    | 0 (* Open *) ->
        let overload = !live_sum -. t.service in
        if overload > 0.0 then int_of_float (overload /. t.service *. delay_scale)
        else 0
    | _ (* Mba *) ->
        (* Approximate enforcement: the MBA meter is a slow average, so a
           core pays its throttle penalty only when its {e sustained}
           rate exceeds the cap — instantaneous bursts pass straight
           through, and the shared queue is still shared, so the
           contention term computed from everyone's instantaneous rate
           remains.  That residue is why the paper's footnote 5 deems
           MBA insufficient against covert channels. *)
        let cap = t.limit.(0) *. t.service in
        let throttle =
          let over = t.slow_rate.(core) -. cap in
          if over > 0.0 then
            int_of_float (over /. t.service *. delay_scale *. 2.0)
          else 0
        in
        let overload = !live_sum -. t.service in
        throttle
        + (if overload > 0.0 then
             int_of_float (overload /. t.service *. delay_scale)
           else 0)
  in
  Tp_obs.Counter.incr t.st_transactions;
  if delay > 0 then begin
    Tp_obs.Counter.incr t.st_stalled;
    Tp_obs.Counter.add t.st_stall_cycles delay
  end;
  delay

let drain t =
  Array.fill t.rate 0 t.cores 0.0;
  Array.fill t.slow_rate 0 t.cores 0.0;
  Array.fill t.b 0 (2 * t.cores) (-1)

let parts t =
  Blob.
    [ Floats t.rate; Floats t.slow_rate; Words t.b; Floats t.limit; Counters t.st ]
