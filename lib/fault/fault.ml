(* Fault-injection registry.

   Kernel code declares *injection points* — named places inside
   multi-step operations where a failure (allocation exhaustion, IRQ
   conflict, zombie race, ...) could strike.  The registry supports
   three modes of use:

   - dormant (the default): [hit] is a near-no-op so production runs
     pay nothing;
   - recording: [trace f] runs [f] and returns the ordered list of
     injection points it crossed — this is how the fail-at-step-N
     driver enumerates the steps of an operation;
   - armed: [arm ~point ~hit exn] makes the [hit]-th crossing of
     [point] raise [exn], exactly once.

   The module is deliberately free of kernel dependencies so the
   kernel itself can depend on it; the exceptions injected are
   whatever the driver arms (usually [Tp_kernel.Types.Kernel_error]). *)

type event =
  | Ev_armed of { point : string; hit : int }
  | Ev_injected of { point : string; hit : int }
  | Ev_disarmed of { point : string; fired : bool }

let observer : (event -> unit) option ref = ref None
let set_observer f = observer := f
let emit ev = match !observer with Some f -> f ev | None -> ()

(* Registered point names, in registration order (kernel module init
   order), for enumeration by tooling. *)
let registered : (string, unit) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref []

let register name =
  if not (Hashtbl.mem registered name) then begin
    Hashtbl.add registered name ();
    order := name :: !order
  end

let points () = List.rev !order

type armed = {
  a_point : string;
  a_hit : int;  (* 0-based index of the crossing that fires *)
  mutable a_countdown : int;
  a_exn : exn;
  mutable a_fired : bool;
}

let current : armed option ref = ref None

type recorder = {
  r_counts : (string, int) Hashtbl.t;  (* per-point occurrence counter *)
  mutable r_trace : (string * int) list;  (* reversed *)
}

let recording : recorder option ref = ref None

let arm ~point ?(hit = 0) exn =
  register point;
  current := Some { a_point = point; a_hit = hit; a_countdown = hit; a_exn = exn; a_fired = false };
  emit (Ev_armed { point; hit })

let disarm () =
  (match !current with
  | Some a -> emit (Ev_disarmed { point = a.a_point; fired = a.a_fired })
  | None -> ());
  current := None

let fired () = match !current with Some a -> a.a_fired | None -> false

let hit name =
  match (!current, !recording) with
  | None, None -> ()
  | cur, rec_ ->
      (match rec_ with
      | Some r ->
          let k = try Hashtbl.find r.r_counts name with Not_found -> 0 in
          Hashtbl.replace r.r_counts name (k + 1);
          r.r_trace <- (name, k) :: r.r_trace
      | None -> ());
      (match cur with
      | Some a when a.a_point = name && not a.a_fired ->
          if a.a_countdown = 0 then begin
            a.a_fired <- true;
            emit (Ev_injected { point = name; hit = a.a_hit });
            raise a.a_exn
          end
          else a.a_countdown <- a.a_countdown - 1
      | Some _ | None -> ())

let trace f =
  let r = { r_counts = Hashtbl.create 16; r_trace = [] } in
  let saved = !recording in
  recording := Some r;
  let finish () = recording := saved in
  match f () with
  | v ->
      finish ();
      (v, List.rev r.r_trace)
  | exception e ->
      finish ();
      raise e
