type config = { banks : int; row_bits : int; t_hit : int; t_miss : int }

type t = {
  cfg : config;
  open_rows : int array; (* per bank; -1 = closed.  All the model state. *)
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_row_hits : Tp_obs.Counter.t;
  st_row_empty : Tp_obs.Counter.t;
  st_row_conflicts : Tp_obs.Counter.t;
  st_precharge_all : Tp_obs.Counter.t;
}

let create ?(name = "dram") cfg =
  assert (Defs.is_pow2 cfg.banks);
  let st = Tp_obs.Counter.make_set name in
  let st_row_hits = Tp_obs.Counter.counter st "row_hits" in
  let st_row_empty = Tp_obs.Counter.counter st "row_empty" in
  let st_row_conflicts = Tp_obs.Counter.counter st "row_conflicts" in
  let st_precharge_all = Tp_obs.Counter.counter st "precharge_all" in
  {
    cfg;
    open_rows = Array.make cfg.banks (-1);
    st;
    st_row_hits;
    st_row_empty;
    st_row_conflicts;
    st_precharge_all;
  }

let counters t = t.st

(* Memory controllers hash many address bits into the bank selector to
   spread conflicts; consequently page colouring (which constrains only
   the low page-number bits) cannot partition the banks — DRAM rows are
   microarchitectural state outside OS control, like the prefetcher. *)
let bank_of_row cfg row =
  (row lxor (row lsr 3) lxor (row lsr 7)) land (cfg.banks - 1)

let bank_of cfg ~paddr = bank_of_row cfg (paddr lsr cfg.row_bits)

let access t ~paddr =
  let row = paddr lsr t.cfg.row_bits in
  let bank = bank_of_row t.cfg row in
  if t.open_rows.(bank) = row then begin
    Tp_obs.Counter.incr t.st_row_hits;
    t.cfg.t_hit
  end
  else begin
    (* Same latency either way in this model; the distinction is a
       counter-only refinement (empty bank vs. conflicting open row). *)
    if t.open_rows.(bank) = -1 then Tp_obs.Counter.incr t.st_row_empty
    else Tp_obs.Counter.incr t.st_row_conflicts;
    t.open_rows.(bank) <- row;
    t.cfg.t_miss
  end

let close_all t =
  Tp_obs.Counter.incr t.st_precharge_all;
  Array.fill t.open_rows 0 t.cfg.banks (-1)

let parts t = [ Blob.Words t.open_rows; Blob.Counters t.st ]
