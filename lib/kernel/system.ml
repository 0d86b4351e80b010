type percore = {
  mutable cur_kernel : Types.kimage;
  mutable cur_thread : Types.tcb option;
}

type t = {
  machine : Tp_hw.Machine.t;
  platform : Tp_hw.Platform.t;
  layout : Layout.image_layout;
  cfg : Config.t;
  flush_plan : Tp_hw.Flush.step list;
  phys : Phys.t;
  sched : Sched.t;
  irq : Irq.t;
  shared_paddr : int;
  shared_vaddr : int;
  initial_kernel : Types.kimage;
  mutable kernels : Types.kimage list;
  mutable tcbs : Types.tcb list;
  mutable asid_free : int list;
  cores : percore array;
  mutable shared_audit :
    (Layout.shared_region -> off:int -> len:int -> kind:Tp_hw.Defs.access_kind -> unit)
    option;
  mutable cat_masks : int array option;
}

let max_asids = 256

let mk_idle_tcb ki core =
  {
    Types.t_id = Types.fresh_id ();
    t_prio = 0;
    t_state = Types.Ts_ready;
    t_vspace = None;
    t_kernel = Some ki;
    t_core = core;
      t_sc = None;
    t_domain = -1;
    t_frames = [];
    t_is_idle = true;
  }

let create platform cfg =
  let machine = Tp_hw.Machine.create platform in
  let phys = Phys.create platform in
  let img_frames = Layout.image_frames platform in
  let boot_frames = img_frames + Layout.shared_frames in
  let base = Phys.reserve_boot phys ~frames:boot_frames in
  let shared_paddr = Phys.frame_addr (base + img_frames) in
  (* The kernel window maps the image at the canonical base and the
     shared block well past the image area. *)
  let shared_vaddr = Layout.shared_vaddr in
  let initial_kernel =
    {
      Types.ki_id = Types.fresh_id ();
      ki_state = Types.Ki_active;
      ki_asid = 0;
      ki_is_initial = true;
      ki_frames = Array.init img_frames (fun i -> base + i);
      ki_idle = None;
      ki_running_on = Array.make platform.Tp_hw.Platform.cores false;
      ki_irqs = [];
      ki_pad_cycles = cfg.Config.pad_cycles;
    }
  in
  initial_kernel.Types.ki_idle <- Some (mk_idle_tcb initial_kernel 0);
  if cfg.Config.disable_prefetcher then
    for c = 0 to platform.Tp_hw.Platform.cores - 1 do
      Tp_hw.Machine.set_prefetcher_enabled machine ~core:c false
    done;
  {
    machine;
    platform;
    layout = Layout.image_layout platform;
    cfg;
    flush_plan = Config.flush_plan platform cfg;
    phys;
    sched = Sched.create ~cores:platform.Tp_hw.Platform.cores;
    irq = Irq.create ~cores:platform.Tp_hw.Platform.cores;
    shared_paddr;
    shared_vaddr;
    initial_kernel;
    kernels = [ initial_kernel ];
    tcbs = [];
    asid_free = List.init (max_asids - 1) (fun i -> i + 1);
    shared_audit = None;
    cat_masks = None;
    cores =
      Array.init platform.Tp_hw.Platform.cores (fun _ ->
          { cur_kernel = initial_kernel; cur_thread = None });
  }

let machine t = t.machine
let platform t = t.platform
let image_layout t = t.layout
let cfg t = t.cfg
let flush_plan t = t.flush_plan
let phys t = t.phys
let sched t = t.sched
let irq t = t.irq
let initial_kernel t = t.initial_kernel
let kernels t = t.kernels
let register_kernel t ki = t.kernels <- ki :: t.kernels

let unregister_kernel t ki =
  t.kernels <- List.filter (fun k -> k.Types.ki_id <> ki.Types.ki_id) t.kernels

let per_core t c = t.cores.(c)
let n_colours t = Phys.n_colours t.phys

let () = List.iter Tp_fault.Fault.register [ "asid.alloc"; "asid.free" ]

let alloc_asid t =
  Tp_fault.Fault.hit "asid.alloc";
  match t.asid_free with
  | [] -> raise (Types.Kernel_error Types.Out_of_asids)
  | a :: rest ->
      t.asid_free <- rest;
      a

let free_asid t a =
  Tp_fault.Fault.hit "asid.free";
  (* ASID 0 belongs to the initial kernel and is never allocatable;
     re-freeing a free ASID would corrupt the free list (the same ASID
     handed out twice aliases two protection domains). *)
  if a <= 0 || a >= max_asids || List.mem a t.asid_free then
    raise (Types.Kernel_error Types.Double_free);
  t.asid_free <- a :: t.asid_free

let free_asid_count t = List.length t.asid_free
let asid_is_free t a = List.mem a t.asid_free

let register_tcb t tcb = t.tcbs <- tcb :: t.tcbs
let all_tcbs t = t.tcbs

let now t ~core = Tp_hw.Machine.cycles t.machine ~core

let kernel_mappings_global t = not t.cfg.Config.clone_kernel

let current_asid t ~core =
  match t.cores.(core).cur_thread with
  | Some { Types.t_vspace = Some vs; _ } -> vs.Types.vs_asid
  | Some _ | None -> t.cores.(core).cur_kernel.Types.ki_asid

type image_region = Text | Stack | Data | Flushbuf

let region_off t region =
  let lay = t.layout in
  match region with
  | Text -> lay.Layout.text_off
  | Stack -> lay.Layout.stack_off
  | Data -> lay.Layout.data_off
  | Flushbuf -> lay.Layout.flushbuf_off

(* Physical address of a byte offset into an image: image frames may be
   non-contiguous (coloured pools), so resolve through the frame list. *)
let image_pa ki ~off =
  let page = Tp_hw.Defs.page_size in
  Phys.frame_addr ki.Types.ki_frames.(off / page) + (off mod page)

let image_region_base t ki region =
  let roff = region_off t region in
  (Layout.kernel_base_vaddr + roff, image_pa ki ~off:roff)

(* Touch every cache line overlapping [off, off + len) of a kernel
   window, in address order, through the current address space's TLB
   context.  The shared window maps linearly from [shared_paddr]; an
   image window resolves each line through [ki]'s frames ([ki] is not
   read when [shared]).  Nothing is allocated. *)
let touch_range t ~core ~kind ~shared ~ki ~off ~len =
  let line = t.platform.Tp_hw.Platform.line in
  let asid = current_asid t ~core in
  let global = kernel_mappings_global t in
  let vbase = if shared then t.shared_vaddr else Layout.kernel_base_vaddr in
  let last = (off + len - 1) / line * line in
  let o = ref (off / line * line) in
  let lat = ref 0 in
  while !o <= last do
    let paddr =
      if shared then t.shared_paddr + !o else image_pa ki ~off:!o
    in
    lat :=
      !lat
      + Tp_hw.Machine.access_pt t.machine ~core ~asid ~global ~llc_ways:max_int
          ~root_pa:(-1) ~leaf_pa:(-1) ~vaddr:(vbase + !o) ~paddr ~kind;
    o := !o + line
  done;
  !lat

let touch_image t ~core ki ~region ~off ~len ~kind =
  touch_range t ~core ~kind ~shared:false ~ki ~off:(region_off t region + off)
    ~len

let set_shared_audit t hook = t.shared_audit <- hook

let shared_audit t = t.shared_audit

let set_cat_masks t masks = t.cat_masks <- masks

let cat_masks t = t.cat_masks

let cat_mask_of_domain t dom =
  match t.cat_masks with
  | Some a when dom >= 0 && dom < Array.length a -> a.(dom)
  | Some _ | None -> max_int

let touch_shared_range t ~core region ~off ~len ~kind =
  (match t.shared_audit with
  | Some hook -> hook region ~off ~len ~kind
  | None -> ());
  assert (len > 0);
  touch_range t ~core ~kind ~shared:true ~ki:t.initial_kernel
    ~off:(Layout.shared_region_off region + off)
    ~len

let touch_shared t ~core region ~kind =
  touch_shared_range t ~core region ~off:0
    ~len:(Layout.shared_region_size region) ~kind

let shared_base t = (t.shared_vaddr, t.shared_paddr)

let translate vs vaddr =
  match Types.Itbl.find vs.Types.vs_pages (Tp_hw.Defs.page_of vaddr) with
  | frame -> Phys.frame_addr frame + Tp_hw.Defs.page_offset vaddr
  | exception Not_found -> raise (Types.Kernel_error Types.Invalid_capability)

let pt_index vpn = vpn lsr 9 (* 512 8-byte entries per 4 KiB table *)

let map_page _t vs ~pt_alloc ~vpn ~frame =
  assert (not (Types.Itbl.mem vs.Types.vs_pages vpn));
  let pti = pt_index vpn in
  if not (Types.Itbl.mem vs.Types.vs_leaf_pts pti) then begin
    match pt_alloc with
    | Some alloc -> Types.Itbl.replace vs.Types.vs_leaf_pts pti (alloc ())
    | None -> raise (Types.Kernel_error Types.Invalid_address)
  end;
  Types.Itbl.replace vs.Types.vs_pages vpn frame

(* The lines a hardware page-table walk of [vpn] reads: one entry in
   the root table, one in the leaf table (-1 if it does not exist). *)
let pt_entry_line t frame idx =
  let line = t.platform.Tp_hw.Platform.line in
  Phys.frame_addr frame + (idx * 8 / line * line)

let root_line t vs vpn = pt_entry_line t vs.Types.vs_root_pt (pt_index vpn land 511)

(* Consecutive accesses mostly stay within one leaf table's 2 MiB, so
   the last table found is memoised in the vspace (see [vs_memo_pti]);
   a missing table is not, since [map_page] may add it later. *)
let leaf_line t vs vpn =
  let pti = pt_index vpn in
  if pti = vs.Types.vs_memo_pti then
    pt_entry_line t vs.Types.vs_memo_leaf (vpn land 511)
  else
    match Types.Itbl.find vs.Types.vs_leaf_pts pti with
    | leaf ->
        vs.Types.vs_memo_pti <- pti;
        vs.Types.vs_memo_leaf <- leaf;
        pt_entry_line t leaf (vpn land 511)
    | exception Not_found -> -1

let user_access ?recorder t ~core tcb ~vaddr ~kind =
  match tcb.Types.t_vspace with
  | None -> raise (Types.Kernel_error Types.Invalid_capability)
  | Some vs ->
      let paddr = translate vs vaddr in
      let vpn = Tp_hw.Defs.page_of vaddr in
      let root_pa = root_line t vs vpn in
      let leaf_pa = leaf_line t vs vpn in
      (match recorder with
      | Some r -> Tp_hw.Replay.append_access r ~kind ~vaddr ~paddr ~root_pa ~leaf_pa
      | None -> ());
      Tp_hw.Machine.access_pt t.machine ~core ~asid:vs.Types.vs_asid ~global:false
        ~llc_ways:(cat_mask_of_domain t tcb.Types.t_domain) ~root_pa ~leaf_pa
        ~vaddr ~paddr ~kind
