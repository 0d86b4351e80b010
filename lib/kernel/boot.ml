type domain = {
  dom_id : int;
  dom_colours : Colour.set;
  dom_pool : Types.cap;
  dom_kernel_cap : Types.cap;
  dom_kernel : Types.kimage;
  dom_vspace : Types.vspace;
  mutable dom_threads : Types.tcb list;
}

type booted = {
  sys : System.t;
  root : Types.cap;
  master : Types.cap;
  domains : domain array;
}

let () = List.iter Tp_fault.Fault.register [ "boot.reserve"; "boot.domain"; "boot.spawn" ]

let boot ?(colour_percent = 100) ?(domains = 2) ~platform ~config () =
  assert (domains >= 1);
  Klog.init_fault_logging ();
  let sys = System.create platform config in
  Tp_fault.Fault.hit "boot.reserve";
  let phys = System.phys sys in
  for c = 0 to Tp_hw.Machine.n_cores (System.machine sys) - 1 do
    (System.initial_kernel sys).Types.ki_running_on.(c) <- true
  done;
  (* All free memory becomes the root Untyped of the initial task. *)
  let n_colours = Phys.n_colours phys in
  let root =
    Retype.untyped_of_frames ~n_colours (Frameseq.of_array (Phys.alloc_all phys))
  in
  let master = Clone.master_cap sys in
  let usable = Colour.fraction ~n_colours ~percent:colour_percent in
  let colour_splits =
    if config.Config.colour_user then begin
      let usable_list = Colour.to_list usable in
      let k = List.length usable_list in
      let per = Stdlib.max 1 (k / domains) in
      List.init domains (fun d ->
          Colour.of_list
            (List.filteri
               (fun i _ -> i >= d * per && i < (d + 1) * per)
               usable_list))
    end
    else List.init domains (fun _ -> usable)
  in
  let total_free = Retype.untyped_free_frames root in
  let mk_domain d colours =
    Tp_fault.Fault.hit "boot.domain";
    let pool =
      if config.Config.colour_user then Retype.split_colours root colours
      else Retype.split_frames root ~frames:(total_free / (domains + 1))
    in
    let kernel_cap, kernel =
      if config.Config.clone_kernel then begin
        let kmem = Retype.retype_kernel_memory pool ~platform in
        let cap = Clone.clone sys ~core:0 ~src:master ~kmem in
        (cap, Clone.the_image cap)
      end
      else begin
        (* A derived master cap with the clone right stripped. *)
        let cap = Capability.derive ~clone_right:false master in
        (cap, System.initial_kernel sys)
      end
    in
    let asid = System.alloc_asid sys in
    let vs_cap = Retype.retype_vspace pool ~asid in
    let vspace =
      match vs_cap.Types.target with
      | Types.Obj_vspace vs -> vs
      | _ -> assert false
    in
    {
      dom_id = d;
      dom_colours = colours;
      dom_pool = pool;
      dom_kernel_cap = kernel_cap;
      dom_kernel = kernel;
      dom_vspace = vspace;
      dom_threads = [];
    }
  in
  let domains_arr =
    Array.of_list (List.mapi mk_domain colour_splits)
  in
  (* Way-based LLC partitioning (Intel CAT, §2.3): each domain gets a
     disjoint slice of the LLC's ways as its class of service. *)
  if config.Config.cat_llc then begin
    let ways = platform.Tp_hw.Platform.llc.Tp_hw.Cache.ways in
    let n = Array.length domains_arr in
    let per = Stdlib.max 1 (ways / n) in
    let masks =
      Array.init n (fun i ->
          let lo = i * per in
          let hi = if i = n - 1 then ways else lo + per in
          ((1 lsl hi) - 1) land lnot ((1 lsl lo) - 1))
    in
    System.set_cat_masks sys (Some masks)
  end;
  { sys; root; master; domains = domains_arr }

let spawn b dom ?(prio = 100) ?(core = 0) body =
  Tp_fault.Fault.hit "boot.spawn";
  let cap = Retype.retype_tcb dom.dom_pool ~core ~prio in
  let tcb =
    match cap.Types.target with Types.Obj_tcb t -> t | _ -> assert false
  in
  tcb.Types.t_vspace <- Some dom.dom_vspace;
  tcb.Types.t_kernel <- Some dom.dom_kernel;
  tcb.Types.t_domain <- dom.dom_id;
  System.register_tcb b.sys tcb;
  dom.dom_threads <- tcb :: dom.dom_threads;
  Exec.set_body tcb body;
  Exec.make_runnable b.sys tcb;
  tcb

(* Leaf page tables are carved from the mapper's own pool, like every
   other piece of dynamic kernel data (Figure 2). *)
let pt_alloc_of pool () =
  match Retype.take_frames pool 1 with [ f ] -> f | _ -> assert false

let alloc_pages b dom ~pages =
  assert (pages > 0);
  let frames = Retype.take_frames dom.dom_pool pages in
  let vs = dom.dom_vspace in
  let pt_alloc = pt_alloc_of dom.dom_pool in
  let base_vpn = vs.Types.vs_heap_next in
  List.iteri
    (fun i f -> System.map_page b.sys vs ~pt_alloc:(Some pt_alloc) ~vpn:(base_vpn + i) ~frame:f)
    frames;
  vs.Types.vs_heap_next <- base_vpn + pages;
  base_vpn * Tp_hw.Defs.page_size

let alloc_pages_where b dom ~pred ~pages =
  assert (pages > 0);
  let frames = Retype.take_frames_where dom.dom_pool ~pred pages in
  let vs = dom.dom_vspace in
  let pt_alloc = pt_alloc_of dom.dom_pool in
  let base_vpn = vs.Types.vs_heap_next in
  List.iteri
    (fun i f -> System.map_page b.sys vs ~pt_alloc:(Some pt_alloc) ~vpn:(base_vpn + i) ~frame:f)
    frames;
  vs.Types.vs_heap_next <- base_vpn + pages;
  base_vpn * Tp_hw.Defs.page_size

let map_shared b ~from_dom ~to_dom ~pages =
  assert (pages > 0);
  let frames = Retype.take_frames from_dom.dom_pool pages in
  let map_into dom =
    let vs = dom.dom_vspace in
    let pt_alloc = pt_alloc_of dom.dom_pool in
    let base_vpn = vs.Types.vs_heap_next in
    List.iteri
      (fun i f -> System.map_page b.sys vs ~pt_alloc:(Some pt_alloc) ~vpn:(base_vpn + i) ~frame:f)
      frames;
    vs.Types.vs_heap_next <- base_vpn + pages;
    base_vpn * Tp_hw.Defs.page_size
  in
  (map_into from_dom, map_into to_dom)

let subdivide b dom ~parts ~core =
  assert (parts >= 1);
  let n_avail = Colour.count dom.dom_colours in
  if n_avail < parts then raise (Types.Kernel_error Types.Insufficient_colours);
  let colour_list = Colour.to_list dom.dom_colours in
  let per = n_avail / parts in
  let extra = n_avail mod parts in
  let rec split_colours part start acc =
    if part = parts then List.rev acc
    else begin
      let size = per + if part < extra then 1 else 0 in
      let s = Colour.of_list (List.filteri (fun i _ -> i >= start && i < start + size) colour_list) in
      split_colours (part + 1) (start + size) (s :: acc)
    end
  in
  let platform = System.platform b.sys in
  List.mapi
    (fun i colours ->
      let pool = Retype.split_colours dom.dom_pool colours in
      let kmem = Retype.retype_kernel_memory pool ~platform in
      let cap = Clone.clone b.sys ~core ~src:dom.dom_kernel_cap ~kmem in
      let asid = System.alloc_asid b.sys in
      let vs_cap = Retype.retype_vspace pool ~asid in
      let vspace =
        match vs_cap.Types.target with
        | Types.Obj_vspace vs -> vs
        | _ -> assert false
      in
      {
        dom_id = (dom.dom_id * 100) + i + 1;
        dom_colours = colours;
        dom_pool = pool;
        dom_kernel_cap = cap;
        dom_kernel = Clone.the_image cap;
        dom_vspace = vspace;
        dom_threads = [];
      })
    (split_colours 0 0 [])

let new_notification b dom =
  ignore b;
  let cap = Retype.retype_notification dom.dom_pool in
  match cap.Types.target with
  | Types.Obj_notification nf -> nf
  | _ -> assert false

let new_endpoint b dom =
  ignore b;
  let cap = Retype.retype_endpoint dom.dom_pool in
  match cap.Types.target with
  | Types.Obj_endpoint ep -> ep
  | _ -> assert false
