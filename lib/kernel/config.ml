type t = {
  colour_user : bool;
  clone_kernel : bool;
  flush_l1 : bool;
  flush_tlb : bool;
  flush_bp : bool;
  flush_l2 : bool;
  flush_llc : bool;
  disable_prefetcher : bool;
  pad_cycles : int;
  partition_irqs : bool;
  prefetch_shared : bool;
  close_dram_rows : bool;
  cat_llc : bool;
}

let raw =
  {
    colour_user = false;
    clone_kernel = false;
    flush_l1 = false;
    flush_tlb = false;
    flush_bp = false;
    flush_l2 = false;
    flush_llc = false;
    disable_prefetcher = false;
    pad_cycles = 0;
    partition_irqs = false;
    prefetch_shared = false;
    close_dram_rows = false;
    cat_llc = false;
  }

(* Table 4's padding values: 58.8 us (x86), 62.5 us (Arm). *)
let pad_us p =
  match p.Tp_hw.Platform.arch with Tp_hw.Platform.X86 -> 58.8 | Tp_hw.Platform.Arm -> 62.5

let protected_ p =
  {
    colour_user = true;
    clone_kernel = true;
    flush_l1 = true;
    flush_tlb = true;
    flush_bp = true;
    flush_l2 = false;
    flush_llc = false;
    disable_prefetcher = false;
    pad_cycles = Tp_hw.Platform.us_to_cycles p (pad_us p);
    partition_irqs = true;
    prefetch_shared = true;
    close_dram_rows = false;
    cat_llc = false;
  }

let full_flush _p =
  {
    colour_user = false;
    clone_kernel = false;
    flush_l1 = true;
    flush_tlb = true;
    flush_bp = true;
    flush_l2 = true;
    flush_llc = true;
    disable_prefetcher = true;
    pad_cycles = 0;
    partition_irqs = false;
    prefetch_shared = false;
    close_dram_rows = false;
    cat_llc = false;
  }

(* The switch-flush plan: the one place the flush fields are read to
   pick switch steps.  [flush_llc] (wbinvd) covers L1 + L2 + LLC and
   takes precedence; otherwise the L1 flush is the architected one
   where the ISA has it and the x86 manual sweep where it does not,
   and the private L2 is flushed only alongside it. *)
let flush_plan (p : Tp_hw.Platform.t) c =
  let caches =
    if c.flush_llc then Tp_hw.Flush.[ L1_hw; L2; Llc ]
    else if c.flush_l1 then
      (if p.Tp_hw.Platform.has_l1_flush_instr then Tp_hw.Flush.L1_hw
       else Tp_hw.Flush.L1_manual)
      :: (if c.flush_l2 then [ Tp_hw.Flush.L2 ] else [])
    else []
  in
  caches
  @ (if c.flush_tlb then [ Tp_hw.Flush.Tlb ] else [])
  @ (if c.flush_bp then [ Tp_hw.Flush.Bp ] else [])
  @ if c.close_dram_rows then [ Tp_hw.Flush.Dram_close ] else []

type mechanism = { key : string; get : t -> bool; set : t -> bool -> t }

let mechanisms =
  [
    { key = "colour_user"; get = (fun c -> c.colour_user);
      set = (fun c b -> { c with colour_user = b }) };
    { key = "clone_kernel"; get = (fun c -> c.clone_kernel);
      set = (fun c b -> { c with clone_kernel = b }) };
    { key = "flush_l1"; get = (fun c -> c.flush_l1);
      set = (fun c b -> { c with flush_l1 = b }) };
    { key = "flush_tlb"; get = (fun c -> c.flush_tlb);
      set = (fun c b -> { c with flush_tlb = b }) };
    { key = "flush_bp"; get = (fun c -> c.flush_bp);
      set = (fun c b -> { c with flush_bp = b }) };
    { key = "flush_l2"; get = (fun c -> c.flush_l2);
      set = (fun c b -> { c with flush_l2 = b }) };
    { key = "flush_llc"; get = (fun c -> c.flush_llc);
      set = (fun c b -> { c with flush_llc = b }) };
    { key = "disable_prefetcher"; get = (fun c -> c.disable_prefetcher);
      set = (fun c b -> { c with disable_prefetcher = b }) };
    { key = "partition_irqs"; get = (fun c -> c.partition_irqs);
      set = (fun c b -> { c with partition_irqs = b }) };
    { key = "prefetch_shared"; get = (fun c -> c.prefetch_shared);
      set = (fun c b -> { c with prefetch_shared = b }) };
    { key = "close_dram_rows"; get = (fun c -> c.close_dram_rows);
      set = (fun c b -> { c with close_dram_rows = b }) };
    { key = "cat_llc"; get = (fun c -> c.cat_llc);
      set = (fun c b -> { c with cat_llc = b }) };
  ]

(* One-step strengthenings of a configuration: each disabled mechanism
   enabled on its own.  Enabling a flush can raise the worst-case
   switch cost, so "more protection" only means "no more leakage" if
   the pad keeps up: [pad_for] supplies the analytic pad requirement
   for a candidate (callers pass [Tp_analysis.Lint.pad_bound] — this
   module cannot, being below the analysis layer), and every candidate
   is re-padded to cover both its own requirement and the original
   pad.  This is the lattice walked by the certifier's monotonicity
   property test. *)
let strengthen ?(pad_for = fun _ -> 0) c =
  let repad d =
    { d with pad_cycles = max d.pad_cycles (max c.pad_cycles (pad_for d)) }
  in
  let padded =
    if c.pad_cycles < pad_for c then
      [ { c with pad_cycles = pad_for c } ]
    else []
  in
  padded
  @ List.filter_map
      (fun m -> if m.get c then None else Some (repad (m.set c true)))
      mechanisms
