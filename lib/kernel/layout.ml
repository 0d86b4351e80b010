let kernel_base_vaddr = 0x4000_0000

(* The residual shared static data block lives well above any kernel
   image in the window; System maps it here and Tp_analysis.Kcert
   lifts the switch path's accesses against the same base. *)
let shared_vaddr = kernel_base_vaddr + 0x0800_0000

type image_layout = {
  text_off : int;
  text_size : int;
  stack_off : int;
  stack_size : int;
  data_off : int;
  data_size : int;
  flushbuf_off : int;
  flushbuf_size : int;
  image_bytes : int;
}

let page = Tp_hw.Defs.page_size
let round_page n = (n + page - 1) / page * page

let image_layout p =
  let open Tp_hw.Platform in
  let text_size = round_page p.kernel_text in
  let stack_size = round_page p.kernel_stack in
  let data_size = round_page p.kernel_replicated in
  let flushbuf_size =
    if p.has_l1_flush_instr then 0 else round_page (p.l1d.Tp_hw.Cache.size + p.l1i.Tp_hw.Cache.size)
  in
  let text_off = 0 in
  let stack_off = text_off + text_size in
  let data_off = stack_off + stack_size in
  let flushbuf_off = data_off + data_size in
  {
    text_off;
    text_size;
    stack_off;
    stack_size;
    data_off;
    data_size;
    flushbuf_off;
    flushbuf_size;
    image_bytes = flushbuf_off + flushbuf_size;
  }

let image_frames p = (image_layout p).image_bytes / page

type shared_region =
  | Sched_queues
  | Sched_bitmap
  | Cur_decision
  | Irq_tables
  | Cur_irq
  | Asid_table
  | Ioport_table
  | Cur_pointers
  | Big_lock
  | Ipi_barrier

(* Offsets packed in declaration order, 64-byte aligned so regions do
   not share cache lines (the audit of §4.1 checks exactly that kind of
   co-residency). Sizes follow the paper's per-core x64 numbers. *)
let region_layout =
  let align64 n = (n + 63) / 64 * 64 in
  let add (off, acc) (r, size) =
    let off = align64 off in
    (off + size, (r, (off, size)) :: acc)
  in
  let _, l =
    List.fold_left add (0, [])
      [
        (Sched_queues, 4096);
        (Sched_bitmap, 32);
        (Cur_decision, 8);
        (Irq_tables, 2252);
        (Cur_irq, 8);
        (Asid_table, 1126);
        (Ioport_table, 2048);
        (Cur_pointers, 40);
        (Big_lock, 8);
        (Ipi_barrier, 8);
      ]
  in
  l

let shared_region_off r = fst (List.assoc r region_layout)
let shared_region_size r = snd (List.assoc r region_layout)

let shared_bytes =
  List.fold_left (fun acc (_, (off, size)) -> Stdlib.max acc (off + size)) 0
    region_layout

let shared_frames = round_page shared_bytes / page

let all_shared_regions =
  [
    Sched_queues;
    Sched_bitmap;
    Cur_decision;
    Irq_tables;
    Cur_irq;
    Asid_table;
    Ioport_table;
    Cur_pointers;
    Big_lock;
    Ipi_barrier;
  ]

type text_range = { t_off : int; t_len : int }

(* Handlers on distinct pages => distinct colours (mod #colours), and
   at distinct in-page offsets so that handlers whose pages share a
   colour (and therefore alias in the physically-indexed caches) still
   have disjoint set footprints — as a linker's continuous code layout
   gives naturally.  All ranges fit within the smallest modelled
   kernel text (96 KiB = 0x18000 on the Sabre). *)
let entry_stub = { t_off = 0x0000; t_len = 0x400 }
let handler_signal = { t_off = 0x4000; t_len = 0x800 }
let handler_set_priority = { t_off = 0x8800; t_len = 0x800 }
let handler_poll = { t_off = 0xC800; t_len = 0x400 }
let handler_yield = { t_off = 0x10400; t_len = 0x400 }
let handler_ipc = { t_off = 0x12400; t_len = 0x800 }
let handler_tick = { t_off = 0x14C00; t_len = 0x600 }
let handler_irq = { t_off = 0x16200; t_len = 0x400 }
let handler_clone = { t_off = 0x17000; t_len = 0x800 }
let handler_destroy = { t_off = 0x13400; t_len = 0x600 }

(* Distinct memory the Domain_switch path touches outside the flush and
   prefetch steps, as (component, bytes) pairs.  The linter's analytic
   pad bound sweeps each component cold; keeping the list here means a
   layout or switch-path change shows up in the same diff. *)
let switch_footprint p =
  let lay = image_layout p in
  let line = p.Tp_hw.Platform.line in
  [
    ("tick-handler-text", handler_tick.t_len);
    ("big-lock", shared_region_size Big_lock);
    ("cur-irq", shared_region_size Cur_irq);
    ("sched-queue-slots", 32 (* 16 B read + 16 B write *));
    ("sched-bitmap", shared_region_size Sched_bitmap);
    ("cur-decision", shared_region_size Cur_decision);
    ("cur-pointers", shared_region_size Cur_pointers);
    ("irq-mask-unmask-reprogram", 256 + 256 + 64);
    ("stack-copy", 2 * min 1024 lay.stack_size);
    ("dest-tcb", 4 * line);
  ]

(* Distinct memory the Clone.clone path touches, same convention as
   switch_footprint.  The copy loop reads every byte of the template's
   text, stack and replicated-data regions out of the coloured pool and
   writes them into the new image's frames. *)
let clone_footprint p =
  let lay = image_layout p in
  let copied = lay.text_size + lay.stack_size + lay.data_size in
  [
    ("clone-handler-text", handler_clone.t_len);
    ("asid-table", shared_region_size Asid_table);
    ("image-copy-read", copied);
    ("image-copy-write", copied);
  ]

(* Distinct memory the Clone.destroy path touches: the destroy handler,
   IRQ disassociation over the IRQ tables, suspension of bound threads
   through the scheduler structures, the IPI barrier used for the
   remote TLB shootdown, the ASID release and the final registry
   bookkeeping. *)
let destroy_footprint (_ : Tp_hw.Platform.t) =
  [
    ("destroy-handler-text", handler_destroy.t_len);
    ("irq-tables", shared_region_size Irq_tables);
    ("sched-queues", shared_region_size Sched_queues);
    ("sched-bitmap", shared_region_size Sched_bitmap);
    ("ipi-barrier", shared_region_size Ipi_barrier);
    ("asid-table", shared_region_size Asid_table);
    ("cur-pointers", shared_region_size Cur_pointers);
  ]
