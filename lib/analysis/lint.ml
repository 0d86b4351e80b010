open Tp_kernel

let rule_colour_overlap = "TP-COLOUR-OVERLAP"
let rule_colour_off = "TP-COLOUR-OFF"
let rule_cat_overlap = "TP-CAT-OVERLAP"
let rule_clone_missing = "TP-CLONE-MISSING"
let rule_clone_colour = "TP-CLONE-COLOUR"
let rule_kernel_shared = "TP-KERNEL-SHARED"
let rule_irq_shared = "TP-IRQ-SHARED"
let rule_irq_off = "TP-IRQ-OFF"
let rule_pad_insufficient = "TP-PAD-INSUFFICIENT"
let rule_pad_profile = "TP-PAD-PROFILE"
let rule_audit_nondet = "TP-AUDIT-NONDET"

(* Fired by the kernel-path certifier's soundness canary (Kcert lives
   above Lint, so only the identifier is declared here): a certified
   kernel-switch bound that exceeds the Bounds-derived analytic worst
   case means the certifier, not the kernel, is broken. *)
let rule_kcert_unsound = "TP-KCERT-UNSOUND"

(* ------------------------------------------------------------------ *)
(* Analytic pad bound                                                  *)

let flush_component = function
  | Tp_hw.Flush.L1_hw | Tp_hw.Flush.L1_manual -> "flush-l1"
  | Tp_hw.Flush.L2 -> "flush-l2"
  | Tp_hw.Flush.Llc -> "flush-llc"
  | Tp_hw.Flush.Tlb -> "flush-tlb"
  | Tp_hw.Flush.Bp -> "flush-bp"
  | Tp_hw.Flush.Dram_close -> "dram-close"

let pad_bound_breakdown p (cfg : Config.t) =
  let coloured = cfg.Config.colour_user in
  let footprint_bytes =
    List.fold_left (fun acc (_, b) -> acc + b) 0 (Layout.switch_footprint p)
  in
  let sweep bytes = Tp_hw.Bounds.sweep_cycles ~coloured p ~bytes () in
  [ ("fixed-overhead", Tp_hw.Bounds.switch_fixed_overhead);
    ("switch-footprint", sweep footprint_bytes) ]
  @ List.map
      (fun step ->
        (flush_component step, Tp_hw.Bounds.flush_step_bound ~coloured p step))
      (Config.flush_plan p cfg)
  @
  if cfg.Config.prefetch_shared then
    [ ("prefetch-shared", sweep Layout.shared_bytes) ]
  else []

let pad_bound p cfg =
  List.fold_left (fun acc (_, c) -> acc + c) 0 (pad_bound_breakdown p cfg)

(* ------------------------------------------------------------------ *)
(* Analytic lifecycle bounds (clone / destroy)                         *)

(* Worst-case Clone.clone cost: a cold sweep of every footprint
   component (the copy loop's read and write sides dominate).  The
   coloured flag matters: a coloured pool restricts the copy to the
   domain's colours, which costs extra DRAM row misses exactly as the
   switch-footprint sweep does. *)
(* Dirty-victim write-backs a footprint's demand sweeps can trigger —
   the sweeps themselves only charge the lines they bring in. *)
let eviction_component p footprint =
  let line = p.Tp_hw.Platform.line in
  let lines =
    List.fold_left (fun acc (_, bytes) -> acc + ((bytes + line - 1) / line)) 0
      footprint
  in
  ("dirty-evictions", Tp_hw.Bounds.eviction_wb_bound p ~lines)

let clone_bound_breakdown p (cfg : Config.t) =
  let coloured = cfg.Config.colour_user in
  List.map
    (fun (name, bytes) -> (name, Tp_hw.Bounds.sweep_cycles ~coloured p ~bytes ()))
    (Layout.clone_footprint p)
  @ [ eviction_component p (Layout.clone_footprint p) ]

let clone_bound p cfg =
  List.fold_left (fun acc (_, c) -> acc + c) 0 (clone_bound_breakdown p cfg)

(* Worst-case Clone.destroy cost: cold sweeps of the teardown footprint
   plus the fixed costs the sweeps cannot see — the IPI round-trip
   stall per remote core, every core's TLB shootdown, and the registry
   bookkeeping ({!Tp_hw.Bounds}). *)
let destroy_bound_breakdown p (cfg : Config.t) =
  let coloured = cfg.Config.colour_user in
  List.map
    (fun (name, bytes) -> (name, Tp_hw.Bounds.sweep_cycles ~coloured p ~bytes ()))
    (Layout.destroy_footprint p)
  @ [
      eviction_component p (Layout.destroy_footprint p);
      ("ipi-stall", p.Tp_hw.Platform.cores * 2 * Tp_hw.Bounds.ipi_cost);
      ("tlb-shootdown", p.Tp_hw.Platform.cores * Tp_hw.Bounds.tlb_flush_bound p);
      ("bookkeeping", Tp_hw.Bounds.destroy_bookkeeping_cost);
    ]

let destroy_bound p cfg =
  List.fold_left (fun acc (_, c) -> acc + c) 0 (destroy_bound_breakdown p cfg)

(* ------------------------------------------------------------------ *)
(* Views                                                               *)

type kernel_view = {
  kv_id : int;
  kv_initial : bool;
  kv_active : bool;
  kv_frames : int list;
  kv_pad : int;
}

type domain_view = {
  dv_id : int;
  dv_colours : Colour.set;
  dv_kernel : int;
  dv_cat_mask : int option;
  dv_thread_kernels : (int * int) list;
}

type view = {
  v_platform : Tp_hw.Platform.t;
  v_config : Config.t;
  v_n_colours : int;
  v_initial_kernel : int;
  v_kernels : kernel_view list;
  v_domains : domain_view list;
  v_irq_routes : (int * int) list;
  v_pad : int;
}

let view_of_booted (b : Boot.booted) =
  let sys = b.Boot.sys in
  let cfg = System.cfg sys in
  let initial = (System.initial_kernel sys).Types.ki_id in
  let kernels =
    List.map
      (fun ki ->
        {
          kv_id = ki.Types.ki_id;
          kv_initial = ki.Types.ki_is_initial;
          kv_active = ki.Types.ki_state = Types.Ki_active;
          kv_frames = Array.to_list ki.Types.ki_frames;
          kv_pad = ki.Types.ki_pad_cycles;
        })
      (System.kernels sys)
  in
  let masks = System.cat_masks sys in
  let domains =
    Array.to_list b.Boot.domains
    |> List.map (fun d ->
           {
             dv_id = d.Boot.dom_id;
             dv_colours = d.Boot.dom_colours;
             dv_kernel = d.Boot.dom_kernel.Types.ki_id;
             dv_cat_mask =
               Option.bind masks (fun a ->
                   if d.Boot.dom_id >= 0 && d.Boot.dom_id < Array.length a then
                     Some a.(d.Boot.dom_id)
                   else None);
             dv_thread_kernels =
               List.map
                 (fun t ->
                   ( t.Types.t_id,
                     match t.Types.t_kernel with
                     | Some k -> k.Types.ki_id
                     | None -> initial ))
                 d.Boot.dom_threads;
           })
  in
  (* Routing from both sides of the bookkeeping: the controller's
     handler table and each image's ki_irqs list.  A disagreement
     shows up as one IRQ with two kernels. *)
  let routes =
    List.map (fun (irq, ki) -> (irq, ki.Types.ki_id)) (Irq.routes (System.irq sys))
    @ List.concat_map
        (fun ki -> List.map (fun irq -> (irq, ki.Types.ki_id)) ki.Types.ki_irqs)
        (System.kernels sys)
  in
  {
    v_platform = System.platform sys;
    v_config = cfg;
    v_n_colours = System.n_colours sys;
    v_initial_kernel = initial;
    v_kernels = kernels;
    v_domains = domains;
    v_irq_routes = List.sort_uniq compare routes;
    v_pad = cfg.Config.pad_cycles;
  }

(* ------------------------------------------------------------------ *)
(* The pure pass                                                       *)

let pairs l =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go l

let lint_view v =
  let cfg = v.v_config in
  let p = v.v_platform in
  let fs = ref [] in
  let add f = fs := f :: !fs in
  let ndoms = List.length v.v_domains in
  let kernel id = List.find_opt (fun k -> k.kv_id = id) v.v_kernels in
  (* Spatial cache partitioning: user colours. *)
  if cfg.Config.colour_user then
    List.iter
      (fun (a, b) ->
        let both = Colour.inter a.dv_colours b.dv_colours in
        if both <> Colour.empty then
          add
            (Diag.error ~rule:rule_colour_overlap
               ~context:
                 [ ("colours", Format.asprintf "%a" Colour.pp both) ]
               (Printf.sprintf
                  "domains %d and %d share page colours %s: their data can \
                   collide in every physically-indexed cache"
                  a.dv_id b.dv_id
                  (String.concat "," (List.map string_of_int (Colour.to_list both))))))
      (pairs v.v_domains)
  else if (not cfg.Config.cat_llc) && ndoms >= 2 then
    add
      (Diag.error ~rule:rule_colour_off
         "no spatial LLC partitioning (page colouring and CAT both off): \
          concurrent cross-core cache attacks remain possible whatever is \
          flushed on the switch");
  (* CAT way masks. *)
  if cfg.Config.cat_llc then begin
    List.iter
      (fun (a, b) ->
        match (a.dv_cat_mask, b.dv_cat_mask) with
        | Some ma, Some mb when ma land mb <> 0 ->
            add
              (Diag.error ~rule:rule_cat_overlap
                 (Printf.sprintf
                    "domains %d and %d have overlapping CAT way masks \
                     (%#x and %#x)"
                    a.dv_id b.dv_id ma mb))
        | _ -> ())
      (pairs v.v_domains);
    List.iter
      (fun d ->
        if d.dv_cat_mask = None then
          add
            (Diag.error ~rule:rule_cat_overlap
               (Printf.sprintf "domain %d has no CAT way mask installed" d.dv_id)))
      v.v_domains
  end;
  (* Kernel clone coverage. *)
  if cfg.Config.clone_kernel then begin
    List.iter
      (fun d ->
        if d.dv_kernel = v.v_initial_kernel then
          add
            (Diag.error ~rule:rule_clone_missing
               (Printf.sprintf
                  "domain %d runs on the initial (boot) kernel image instead \
                   of a private clone"
                  d.dv_id));
        List.iter
          (fun (tid, kid) ->
            if kid <> d.dv_kernel then
              add
                (Diag.error ~rule:rule_clone_missing
                   (Printf.sprintf
                      "thread %d of domain %d is bound to kernel image %d, \
                       not the domain's image %d"
                      tid d.dv_id kid d.dv_kernel)))
          d.dv_thread_kernels)
      v.v_domains;
    List.iter
      (fun (a, b) ->
        if a.dv_kernel = b.dv_kernel then
          add
            (Diag.error ~rule:rule_clone_missing
               (Printf.sprintf "domains %d and %d share kernel image %d"
                  a.dv_id b.dv_id a.dv_kernel)))
      (pairs v.v_domains);
    (* Private images must be complete and built from the domain's own
       colours; skip domains already reported as clone-missing. *)
    let shared_kernel d =
      d.dv_kernel = v.v_initial_kernel
      || List.exists (fun o -> o.dv_id <> d.dv_id && o.dv_kernel = d.dv_kernel)
           v.v_domains
    in
    List.iter
      (fun d ->
        if not (shared_kernel d) then
          match kernel d.dv_kernel with
          | None ->
              add
                (Diag.error ~rule:rule_clone_missing
                   (Printf.sprintf
                      "domain %d's kernel image %d is not registered with the \
                       system"
                      d.dv_id d.dv_kernel))
          | Some k ->
              let expect = Layout.image_frames p in
              if List.length k.kv_frames <> expect then
                add
                  (Diag.error ~rule:rule_clone_colour
                     (Printf.sprintf
                        "kernel image %d of domain %d has %d frames, expected \
                         %d: clone coverage is incomplete"
                        k.kv_id d.dv_id (List.length k.kv_frames) expect));
              if cfg.Config.colour_user then begin
                let nc = v.v_n_colours in
                let stray =
                  List.filter
                    (fun f ->
                      not
                        (Colour.mem d.dv_colours
                           (Colour.colour_of_frame ~n_colours:nc f)))
                    k.kv_frames
                in
                if stray <> [] then
                  add
                    (Diag.error ~rule:rule_clone_colour
                       (Printf.sprintf
                          "kernel image %d of domain %d has %d frame(s) \
                           outside the domain's colours (first: frame %d)"
                          k.kv_id d.dv_id (List.length stray) (List.hd stray)))
              end)
      v.v_domains
  end
  else if
    ndoms >= 2
    && not
         (let plan = Config.flush_plan v.v_platform cfg in
          (List.mem Tp_hw.Flush.L1_hw plan || List.mem Tp_hw.Flush.L1_manual plan)
          && List.mem Tp_hw.Flush.Tlb plan
          && List.mem Tp_hw.Flush.Bp plan)
  then
    add
      (Diag.error ~rule:rule_kernel_shared
       @@ "all domains share one kernel image and on-core flushing is not \
           configured: kernel text/data footprints carry cross-domain \
           channels (Fig. 3)");
  (* IRQ partitioning. *)
  let by_irq = Hashtbl.create 8 in
  List.iter
    (fun (irq, kid) ->
      let cur = Option.value (Hashtbl.find_opt by_irq irq) ~default:[] in
      if not (List.mem kid cur) then Hashtbl.replace by_irq irq (kid :: cur))
    v.v_irq_routes;
  Hashtbl.iter
    (fun irq kids ->
      if List.length kids > 1 then
        add
          (Diag.error ~rule:rule_irq_shared
             (Printf.sprintf
                "IRQ %d is deliverable to %d kernel images (%s): interrupt \
                 delivery crosses the partition boundary"
                irq (List.length kids)
                (String.concat "," (List.map string_of_int (List.rev kids)))));
      if irq = Irq.preemption_irq then
        add
          (Diag.error ~rule:rule_irq_shared
             "the preemption timer IRQ is routed to a kernel image; it must \
              stay under exclusive kernel control");
      List.iter
        (fun kid ->
          match kernel kid with
          | Some k when k.kv_active -> ()
          | _ ->
              add
                (Diag.error ~rule:rule_irq_shared
                   (Printf.sprintf
                      "IRQ %d is routed to inactive/unknown kernel image %d"
                      irq kid)))
        kids)
    by_irq;
  if (not cfg.Config.partition_irqs) && ndoms >= 2 then
    add
      (Diag.error ~rule:rule_irq_off
         "IRQ partitioning is off with multiple domains: a partition's \
          devices can interrupt another partition's slices (the §5.3.5 \
          interrupt channel)");
  (* Pad sufficiency. *)
  if ndoms >= 2 then begin
    let bound = pad_bound p cfg in
    let pads =
      v.v_pad
      :: List.filter_map
           (fun d -> Option.map (fun k -> k.kv_pad) (kernel d.dv_kernel))
           v.v_domains
    in
    let eff = List.fold_left min max_int pads in
    if eff < bound then
      add
        (Diag.error ~rule:rule_pad_insufficient
           ~context:
             (("pad_cycles", string_of_int eff)
             :: ("bound_cycles", string_of_int bound)
             :: List.map
                  (fun (k, c) -> (k, string_of_int c))
                  (pad_bound_breakdown p cfg))
           (Printf.sprintf
              "switch pad of %d cycles is below the analytic worst-case \
               switch cost of %d cycles: switch latency remains \
               state-dependent"
              eff bound))
  end;
  List.rev !fs

let default_subject b =
  Printf.sprintf "lint %s" (System.platform b.Boot.sys).Tp_hw.Platform.name

let check_static ?subject b =
  let subject = Option.value subject ~default:(default_subject b) in
  { Diag.subject; findings = lint_view (view_of_booted b) }

(* ------------------------------------------------------------------ *)
(* Padprof cross-check                                                 *)

let profile_findings p cfg =
  let bound = pad_bound p cfg in
  Tp_obs.Padprof.images ()
  |> List.filter_map (fun im ->
         if im.Tp_obs.Padprof.im_worst_unpadded > bound then
           Some
             (Diag.warning ~rule:rule_pad_profile
                (Printf.sprintf
                   "kernel image %d: observed unpadded switch cost %d exceeds \
                    the analytic bound %d — the bound no longer covers \
                    observed behaviour"
                   im.Tp_obs.Padprof.im_ki im.Tp_obs.Padprof.im_worst_unpadded
                   bound))
         else None)

(* ------------------------------------------------------------------ *)
(* Dynamic §4.1 audit: the shared-data trace of a switch must be the
   same whatever the outgoing domain did with the machine.             *)

let audit_findings (b : Boot.booted) =
  let sys = b.Boot.sys in
  if Array.length b.Boot.domains < 2 then []
  else begin
    let p = System.platform sys in
    let line = p.Tp_hw.Platform.line in
    let page = Tp_hw.Defs.page_size in
    let d0 = b.Boot.domains.(0) and d1 = b.Boot.domains.(1) in
    let t0 = Boot.spawn b d0 (fun _ -> ()) in
    let t1 = Boot.spawn b d1 (fun _ -> ()) in
    Sched.remove (System.sched sys) ~core:0 t0;
    Sched.remove (System.sched sys) ~core:0 t1;
    let bytes = p.Tp_hw.Platform.l1d.Tp_hw.Cache.size in
    let buf = Boot.alloc_pages b d0 ~pages:(max 1 (bytes / page)) in
    let slice = Tp_hw.Platform.us_to_cycles p 10_000.0 in
    let variant dirty =
      ignore (Domain_switch.switch sys ~core:0 ~to_:t0);
      let ctx =
        Uctx.make sys ~core:0 t0 ~slice_end:(System.now sys ~core:0 + slice)
      in
      (try
         if dirty then
           for i = 0 to (bytes / line) - 1 do
             Uctx.write ctx (buf + (i * line))
           done
       with Uctx.Preempted -> ());
      Audit.capture sys (fun () ->
          ignore (Domain_switch.switch sys ~core:0 ~to_:t1))
    in
    let quiet = variant false in
    let noisy = variant true in
    if Audit.equal_traces quiet noisy then []
    else
      [
        Diag.error ~rule:rule_audit_nondet
          ~context:
            [
              ("quiet_trace", Format.asprintf "%a" Audit.pp_trace quiet);
              ("noisy_trace", Format.asprintf "%a" Audit.pp_trace noisy);
            ]
          (Printf.sprintf
             "shared-data access trace of the domain switch depends on the \
              outgoing domain's behaviour (%d vs %d events): the §4.1 audit \
              fails"
             (List.length quiet) (List.length noisy));
      ]
  end

let run ?subject ?(dynamic = true) b =
  let sys = b.Boot.sys in
  let subject = Option.value subject ~default:(default_subject b) in
  let static = lint_view (view_of_booted b) in
  let prof = profile_findings (System.platform sys) (System.cfg sys) in
  let audit = if dynamic then audit_findings b else [] in
  { Diag.subject; findings = static @ prof @ audit }
