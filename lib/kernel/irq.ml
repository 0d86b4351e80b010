let n_irqs = 32
let preemption_irq = 0

type timer = { tm_irq : int; tm_at : int }

type t = {
  handlers : Types.irq_handler array;
  timers : timer list ref array; (* per core, unsorted (few entries) *)
}

let create ~cores =
  {
    handlers = Array.init n_irqs (fun i -> { Types.ih_irq = i; ih_kernel = None });
    timers = Array.init cores (fun _ -> ref []);
  }

let handler t irq =
  assert (irq >= 0 && irq < n_irqs);
  t.handlers.(irq)

let () = List.iter Tp_fault.Fault.register [ "irq.set_int"; "irq.clear_int" ]

let set_int t ~irq ki =
  assert (irq <> preemption_irq);
  Tp_fault.Fault.hit "irq.set_int";
  let h = handler t irq in
  (match h.Types.ih_kernel with
  | Some k when k.Types.ki_id <> ki.Types.ki_id && k.Types.ki_state = Types.Ki_active
    ->
      raise (Types.Kernel_error Types.Irq_in_use)
  | Some _ | None -> ());
  h.Types.ih_kernel <- Some ki

let clear_int t ~irq =
  Tp_fault.Fault.hit "irq.clear_int";
  (handler t irq).Types.ih_kernel <- None

let routes t =
  Array.to_list t.handlers
  |> List.filter_map (fun h ->
         match h.Types.ih_kernel with
         | Some ki -> Some (h.Types.ih_irq, ki)
         | None -> None)

let arm_timer t ~core ~irq ~at =
  let ts = t.timers.(core) in
  ts := { tm_irq = irq; tm_at = at } :: !ts

let cancel_timers t ~core ~irq =
  let ts = t.timers.(core) in
  ts := List.filter (fun tm -> tm.tm_irq <> irq) !ts

let deliverable t ~partitioned ~current irq =
  if not partitioned then true
  else begin
    match (handler t irq).Types.ih_kernel with
    | Some k -> k.Types.ki_id = current.Types.ki_id
    | None ->
        (* Unassociated IRQs are valid but unpartitioned; the kernel
           "will only ensure that partitioned IRQs cannot leak" (§4.2).
           An unassociated IRQ is delivered to whoever is running. *)
        true
  end

let fires t ~now ~partitioned ~current tm =
  tm.tm_at <= now && deliverable t ~partitioned ~current tm.tm_irq

let rec any_fires t ~now ~partitioned ~current = function
  | [] -> false
  | tm :: rest ->
      fires t ~now ~partitioned ~current tm
      || any_fires t ~now ~partitioned ~current rest

(* Called after every user operation: in the common case, no timer
   due, it returns at once and builds nothing. *)
let pending t ~core ~now ~partitioned ~current =
  let ts = t.timers.(core) in
  if not (any_fires t ~now ~partitioned ~current !ts) then []
  else begin
    let fired, rest = List.partition (fires t ~now ~partitioned ~current) !ts in
    ts := rest;
    List.map (fun tm -> tm.tm_irq) (List.sort (fun a b -> compare a.tm_at b.tm_at) fired)
  end

let next_timer t ~core =
  List.fold_left
    (fun acc tm -> Stdlib.min acc tm.tm_at)
    max_int !(t.timers.(core))

let next_deliverable t ~core ~partitioned ~current =
  List.fold_left
    (fun acc tm ->
      if deliverable t ~partitioned ~current tm.tm_irq then
        Stdlib.min acc tm.tm_at
      else acc)
    max_int !(t.timers.(core))

let rec any_due ~now = function
  | [] -> false
  | tm :: rest -> tm.tm_at <= now || any_due ~now rest

(* Runs on every protected switch, where usually nothing is due: only
   then is the list rebuilt. *)
let drop_masked_race t ~core ~now =
  let ts = t.timers.(core) in
  if any_due ~now !ts then ts := List.filter (fun tm -> tm.tm_at > now) !ts
