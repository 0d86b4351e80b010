(* Kernel lifecycle certifier: `tpsim certify --kernel`.

   {!Certify} proves leakage bounds for guest [Ct_ir] programs; this
   module proves them for the kernel's own lifecycle paths — the
   mechanisms the paper contributes, and until now the only part of
   the system that was measured rather than certified.  Three paths
   are certified per (platform, configuration): the paper-ordered
   12-step domain switch ([Tp_kernel.Domain_switch.switch]), the
   kernel-image clone ([Tp_kernel.Clone.clone]) and its teardown
   ([Tp_kernel.Clone.destroy]).

   The approach lifts each path into an analysable access trace
   ({!lift}): the exact shared-region / image accesses the
   implementation performs, at the exact virtual addresses
   [Tp_kernel.Layout] assigns them, plus the path's deterministic
   branch behaviour (run-length-encoded conditional branches and fixed
   taken jumps).  Abstract interpretation is then set-wise
   must-coverage via the unified {!Absint} kernel-trace back-end — the
   same touch/join rules as the program-level analysis, so the
   soundness argument lives in one place: a path's {e deterministic}
   accesses ([a_must]) pin ways to public content — touching [k]
   distinct lines of a [w]-way set leaves at most [w - min k w] ways
   whose state can still depend on the outgoing domain's secrets.  The
   certified residue of a channel is its structural capacity minus
   that coverage, or 0 when the configuration closes the channel
   outright (flush or spatial partition) — {!Certify.bounds}, the
   guest certifier's own closure-to-bits step.

   Soundness notes, per channel:

   - accesses whose address varies across executions (the destination
     thread's priority slot, TCBs and image frames at user-chosen
     physical frames) are marked [a_must = false] and contribute {e no}
     coverage — under-approximating coverage over-approximates residue;
   - virtual-indexed structures (both L1s, the TLBs) take coverage
     from virtual addresses, which the layout fixes; physically-indexed
     outer caches get {e zero} coverage because image physical
     placement is allocation-dependent;
   - the branch predictor takes coverage through the model's own index
     hashes ({!Tp_hw.Btb.set_of_addr} for the BTB,
     {!Tp_hw.Bhb.index_of} for the gshare PHT): deterministic kernel
     branches at layout-fixed sites pin BTB ways set-wise, and pin PHT
     counters whose final prediction the trace forces regardless of
     prior (victim-trained) state;
   - the x86 manual L1 flush appears in the trace as its real
     flush-buffer sweep (one read per L1-D line, one fetch per L1-I
     line), so its full-coverage effect is {e derived}, not asserted;
   - aliasing between kernel images (all mapped at the same virtual
     base) dedups to single virtual lines, which matches the
     virtually-indexed structures the coverage feeds.

   The clone and destroy paths additionally carry a duration bound
   ([k_op_bound], from {!Lint.clone_bound}/{!Lint.destroy_bound}):
   unlike the padded switch, their latency is visible to the caller,
   so when the configuration leaves stateful channels open the
   operation's cost varies with incoming microarchitectural state and
   contributes ⌈log₂ (bound + 1)⌉ timing bits
   ([Certify.pad_slack ~bound ~pad:0]); with every
   stateful channel scrubbed or partitioned the cost is deterministic
   and contributes none.

   Cross-validation is {!Certify.exhaustive}: observational
   determinism across secrets under all three-domain schedules of the
   shrunken machine, with the neighbour's turn performing this
   certificate's lifecycle operation.  A 0-bit kernel certificate
   contradicted by a 3-domain counterexample is a certifier bug and
   fails CI ([CERT-K-XCHECK-EXHAUSTIVE]); a certificate exceeding the
   [Tp_hw.Bounds]-derived analytic envelope trips the linter's
   unsoundness canary ([TP-KCERT-UNSOUND]).

   Certificates serialise to deterministic, content-digested JSON
   artifacts ({!to_json} / {!digest}); CI regenerates all 63 (3
   platforms x 7 configs x 3 paths) and byte-diffs against the
   checked-in goldens under [certs/kernel/]. *)

module C = Tp_kernel.Config
module P = Tp_hw.Platform
module L = Tp_kernel.Layout
module Json = Tp_util.Json

let schema = "tpsim-kcert/2"

(* ------------------------------------------------------------------ *)
(* Rule identifiers                                                    *)

let rule_l1d_residue = "CERT-K-L1D-RESIDUE"
let rule_l1i_residue = "CERT-K-L1I-RESIDUE"
let rule_tlb_residue = "CERT-K-TLB-RESIDUE"
let rule_btb_residue = "CERT-K-BTB-RESIDUE"
let rule_llc_residue = "CERT-K-LLC-RESIDUE"
let rule_pad_timing = "CERT-K-PAD-TIMING"
let rule_xcheck = "CERT-K-XCHECK-EXHAUSTIVE"

let channel_rule = function
  | Certify.L1d -> rule_l1d_residue
  | Certify.L1i -> rule_l1i_residue
  | Certify.Tlb -> rule_tlb_residue
  | Certify.Bp -> rule_btb_residue
  | Certify.Llc -> rule_llc_residue

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

type path = Certify.kernel_path = Switch | Clone | Destroy

let path_slug = Certify.kernel_path_slug

(* ------------------------------------------------------------------ *)
(* The lifted traces                                                   *)

type access = {
  a_what : string;
  a_vaddr : int;
  a_bytes : int;
  a_kind : Tp_hw.Defs.access_kind;
  a_must : bool;
      (** address identical on every execution: counts toward coverage *)
}

type step = {
  s_index : int;
  s_name : string;
  s_accesses : access list;
  s_flushes : string list;
  s_branches : (int * bool * int) list;
      (** deterministic conditional branches, RLE [(site, taken, repeat)] *)
  s_jumps : int list;  (** fixed taken-jump sites (BTB) *)
}

let acc ?(must = true) what vaddr bytes kind =
  { a_what = what; a_vaddr = vaddr; a_bytes = bytes; a_kind = kind; a_must = must }

let step i name ?(flushes = []) ?(branches = []) ?(jumps = []) accesses =
  {
    s_index = i;
    s_name = name;
    s_accesses = accesses;
    s_flushes = flushes;
    s_branches = branches;
    s_jumps = jumps;
  }

(* Fixed jump sites every handler shares: the entry stub's dispatch
   jump into the handler, and the handler's return jump back to the
   stub.  Both are layout-fixed kernel-text addresses, so they earn
   BTB coverage through the model's own set hash. *)
let dispatch_site = L.kernel_base_vaddr + L.entry_stub.L.t_off + 0x10

let return_site (h : L.text_range) =
  L.kernel_base_vaddr + h.L.t_off + h.L.t_len - 8

let flush_name = function
  | Tp_hw.Flush.L1_hw -> "l1-hw"
  | Tp_hw.Flush.L1_manual -> "l1-manual"
  | Tp_hw.Flush.L2 -> "l2-private"
  | Tp_hw.Flush.Llc -> "llc"
  | Tp_hw.Flush.Tlb -> "tlb"
  | Tp_hw.Flush.Bp -> "bp"
  | Tp_hw.Flush.Dram_close -> "dram-close"

(* The 12 paper-ordered steps of [Domain_switch.switch], lifted for a
   domain-crossing switch under [cfg].  For a domain crossing,
   [protect = kernel_switched || not clone_kernel] is true in every
   configuration (with cloned kernels the crossing switches kernels;
   without, the fallback triggers), so the protection steps 3/7 are
   unconditional here; the stack copy (step 4) runs exactly when
   kernels are cloned. *)
let lift_switch (p : P.t) (cfg : C.t) =
  let shared r = L.shared_vaddr + L.shared_region_off r in
  let ssize = L.shared_region_size in
  let base = L.kernel_base_vaddr in
  let lay = L.image_layout p in
  let r = Tp_hw.Defs.Read and w = Tp_hw.Defs.Write and f = Tp_hw.Defs.Fetch in
  let plan = C.flush_plan p cfg in
  (* The manual flush's buffer sweep is real memory traffic at fixed
     per-image virtual addresses: one load per L1-D line, one fetched
     jump per L1-I line ([Domain_switch.manual_l1_flush]). *)
  let manual_accesses =
    if not (List.mem Tp_hw.Flush.L1_manual plan) then []
    else
      [
        acc "flushbuf-d-sweep" (base + lay.L.flushbuf_off) p.P.l1d.Tp_hw.Cache.size r;
        acc "flushbuf-i-sweep"
          (base + lay.L.flushbuf_off + p.P.l1d.Tp_hw.Cache.size)
          p.P.l1i.Tp_hw.Cache.size f;
      ]
  in
  (* The tick handler's two scheduler scan loops: 32 iterations each
     over the priority bitmap words, back edge taken then one
     fall-through exit.  Long enough that the gshare history settles
     to all-ones mid-run on every modelled platform, after which the
     repeated updates land on one computed PHT index per site and pin
     its prediction. *)
  let tick_loop_a = base + L.handler_tick.L.t_off + 0x40 in
  let tick_loop_b = base + L.handler_tick.L.t_off + 0x80 in
  let tick_branches =
    [
      (tick_loop_a, true, 32);
      (tick_loop_a, false, 1);
      (tick_loop_b, true, 32);
      (tick_loop_b, false, 1);
    ]
  in
  let live_stack = min 1024 lay.L.stack_size in
  [
    step 1 "acquire-kernel-lock"
      ~jumps:[ dispatch_site ]
      [ acc "big-lock" (shared L.Big_lock) 8 w ];
    step 2 "process-tick" ~branches:tick_branches
      [
        acc "tick-handler-text"
          (base + L.handler_tick.L.t_off)
          L.handler_tick.L.t_len f;
        acc "cur-irq" (shared L.Cur_irq) 8 w;
        (* Destination priority chooses the slot: address varies. *)
        acc ~must:false "sched-queue-slot" (shared L.Sched_queues) 16 r;
        acc "sched-bitmap" (shared L.Sched_bitmap) (ssize L.Sched_bitmap) r;
        acc "cur-decision" (shared L.Cur_decision) 8 w;
      ];
    step 3 "mask-irqs" [ acc "irq-tables" (shared L.Irq_tables) 256 w ];
    step 4 "stack-copy"
      (if cfg.clone_kernel then
         (* Both images map their stacks at the same virtual offset —
            the virtual lines alias, exactly as in the L1. *)
         [
           acc "from-stack" (base + lay.L.stack_off) live_stack r;
           acc "to-stack" (base + lay.L.stack_off) live_stack w;
         ]
       else []);
    step 5 "thread-context"
      [
        acc ~must:false "sched-queue-slot" (shared L.Sched_queues) 16 w;
        (* The destination TCB lives at a user-allocated physical
           frame: no fixed address, no coverage. *)
        acc ~must:false "dest-tcb" 0 (4 * p.P.line) r;
        acc "cur-pointers" (shared L.Cur_pointers) (ssize L.Cur_pointers) w;
      ];
    step 6 "release-kernel-lock" [ acc "big-lock" (shared L.Big_lock) 8 w ];
    step 7 "unmask-irqs" [ acc "irq-tables" (shared L.Irq_tables) 256 w ];
    step 8 "flush" ~flushes:(List.map flush_name plan) manual_accesses;
    step 9 "prefetch-shared"
      (if cfg.prefetch_shared then
         List.map
           (fun reg ->
             acc
               (Printf.sprintf "shared-%d" (L.shared_region_off reg))
               (shared reg) (ssize reg) r)
           L.all_shared_regions
       else []);
    step 10 "pad" [];
    step 11 "timer-reprogram" [ acc "irq-tables" (shared L.Irq_tables) 64 w ];
    step 12 "return" ~jumps:[ return_site L.handler_tick ] [];
  ]

(* [Clone.clone], lifted: capability validation, the ASID-table scan,
   the coloured-pool image copy (text + stack + replicated data; the
   frames come from the caller's pool, so source and destination
   physical-window addresses are allocation-dependent — no coverage),
   the clone handler's own text, idle-thread initialisation and the
   CDT commit.  The copy loop's back edge is a fixed handler-text
   site taken once per copied line. *)
let lift_clone (p : P.t) (_cfg : C.t) =
  let shared r = L.shared_vaddr + L.shared_region_off r in
  let ssize = L.shared_region_size in
  let base = L.kernel_base_vaddr in
  let lay = L.image_layout p in
  let r = Tp_hw.Defs.Read and w = Tp_hw.Defs.Write and f = Tp_hw.Defs.Fetch in
  let copied = lay.L.text_size + lay.L.stack_size + lay.L.data_size in
  let copy_loop = base + L.handler_clone.L.t_off + 0x40 in
  [
    step 1 "validate-caps"
      ~jumps:[ dispatch_site ]
      [ acc ~must:false "src-and-kmem-caps" 0 (2 * p.P.line) r ];
    step 2 "alloc-asid"
      [ acc "asid-table" (shared L.Asid_table) (ssize L.Asid_table) r ];
    step 3 "image-copy"
      ~branches:[ (copy_loop, true, copied / p.P.line); (copy_loop, false, 1) ]
      [
        (* Frames are user-allocated: the physical-window addresses of
           both sides vary per clone — may-residency only. *)
        acc ~must:false "image-copy-read" 0 copied r;
        acc ~must:false "image-copy-write" 0 copied w;
      ];
    step 4 "clone-handler-text"
      [
        acc "clone-handler-text"
          (base + L.handler_clone.L.t_off)
          L.handler_clone.L.t_len f;
      ];
    step 5 "init-idle" [ acc ~must:false "idle-tcb" 0 (4 * p.P.line) w ];
    step 6 "commit-cdt"
      ~jumps:[ return_site L.handler_clone ]
      [ acc ~must:false "cdt-slot" 0 p.P.line w ];
  ]

(* [Clone.destroy], lifted: capability validation, the destroy
   handler's own text, IRQ disassociation and thread suspension (slot
   choice depends on the dying domain — no coverage), the per-core
   IPI-shootdown scan loop, and the ASID release + registry commit
   (fixed shared-region writes, matching the execution's
   [touch_shared] calls). *)
let lift_destroy (p : P.t) (_cfg : C.t) =
  let shared r = L.shared_vaddr + L.shared_region_off r in
  let ssize = L.shared_region_size in
  let base = L.kernel_base_vaddr in
  let r = Tp_hw.Defs.Read and w = Tp_hw.Defs.Write and f = Tp_hw.Defs.Fetch in
  let scan_loop = base + L.handler_destroy.L.t_off + 0x40 in
  [
    step 1 "validate-zombie"
      ~jumps:[ dispatch_site ]
      [ acc ~must:false "image-cap" 0 p.P.line r ];
    step 2 "destroy-handler-text"
      [
        acc "destroy-handler-text"
          (base + L.handler_destroy.L.t_off)
          L.handler_destroy.L.t_len f;
      ];
    step 3 "detach-irqs"
      [ acc ~must:false "irq-tables" (shared L.Irq_tables) 256 w ];
    step 4 "suspend-threads"
      [ acc ~must:false "sched-queue-slot" (shared L.Sched_queues) 16 w ];
    step 5 "ipi-shootdown" ~flushes:[ "tlb-shootdown" ]
      ~branches:[ (scan_loop, true, p.P.cores); (scan_loop, false, 1) ]
      [ acc ~must:false "ipi-barrier" (shared L.Ipi_barrier) 8 w ];
    step 6 "release-asid-commit"
      ~jumps:[ return_site L.handler_destroy ]
      [
        acc "asid-table" (shared L.Asid_table) (ssize L.Asid_table) w;
        acc "cur-pointers" (shared L.Cur_pointers) (ssize L.Cur_pointers) w;
      ];
  ]

let lift ?(path = Switch) (p : P.t) (cfg : C.t) =
  match path with
  | Switch -> lift_switch p cfg
  | Clone -> lift_clone p cfg
  | Destroy -> lift_destroy p cfg

(* ------------------------------------------------------------------ *)
(* Set-wise must-coverage — reference implementation                   *)

(* The original (pre-lifecycle) switch-path coverage pass, kept as an
   independent reference implementation: the differential test checks
   that the unified {!Absint.cover_trace} back-end reproduces these
   sums bit-for-bit on every lifted trace.  New code should use the
   Absint back-end. *)

let distinct_per_bucket pairs =
  (* [(bucket, id)] pairs -> bucket -> distinct-id count, as a sorted
     association list (determinism of the fold does not matter for the
     sums below, but sorted output keeps debugging sane). *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (b, id) ->
      let ids = Option.value (Hashtbl.find_opt tbl b) ~default:[] in
      if not (List.mem id ids) then Hashtbl.replace tbl b (id :: ids))
    pairs;
  Hashtbl.fold (fun b ids l -> (b, List.length ids) :: l) tbl []
  |> List.sort compare

let covered_cache (g : Tp_hw.Cache.geometry) accs =
  let sets = Tp_hw.Cache.sets g in
  let pairs =
    List.concat_map
      (fun a ->
        let first = a.a_vaddr / g.line
        and last = (a.a_vaddr + a.a_bytes - 1) / g.line in
        List.init (last - first + 1) (fun i ->
            let l = first + i in
            (l mod sets, l)))
      accs
  in
  List.fold_left
    (fun t (_, k) -> t + min k g.ways)
    0
    (distinct_per_bucket pairs)

let covered_tlb (t : Tp_hw.Tlb.geometry) pages =
  let sets = max 1 (t.entries / t.ways) in
  let pairs = List.map (fun vpn -> (vpn mod sets, vpn)) pages in
  List.fold_left
    (fun tot (_, k) -> tot + min k t.ways)
    0
    (distinct_per_bucket pairs)

let pages_of accs =
  List.concat_map
    (fun a ->
      let first = a.a_vaddr / Tp_hw.Defs.page_size
      and last = (a.a_vaddr + a.a_bytes - 1) / Tp_hw.Defs.page_size in
      List.init (last - first + 1) (fun i -> first + i))
    accs

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)

type cert = {
  k_platform : string;
  k_config_name : string;
  k_config : C.t;
  k_path : path;
  k_steps : step list;
  k_bounds : Certify.bound list;
  k_timing_bits : int;
  k_pad_bound : int;
  k_pad_effective : int;
  k_op_bound : int;
      (** analytic duration bound of the lifecycle operation; 0 for
          the (padded) switch path *)
  k_exhaustive : Certify.exhaustive_result option;
  k_exclusions : string list;
}

let state_bits c =
  List.fold_left (fun a b -> a + b.Certify.b_bits) 0 c.k_bounds

let total_bits c = state_bits c + c.k_timing_bits

let op_bound_of path (p : P.t) (cfg : C.t) =
  match path with
  | Switch -> 0
  | Clone -> Lint.clone_bound p cfg
  | Destroy -> Lint.destroy_bound p cfg

let certify ?exhaustive ?(path = Switch) (p : P.t) ~config_name (cfg : C.t) =
  let steps = lift ~path p cfg in
  let accs = List.concat_map (fun s -> s.s_accesses) steps in
  (* Unified back-end: the same abstract structures and touch/join
     rules as the program-level analysis.  Fixed accesses earn must
     facts granule by granule; variable accesses are may-residency
     only. *)
  let cov =
    Absint.cover_trace p
      (List.map
         (fun a ->
           {
             Absint.ka_vaddr = a.a_vaddr;
             ka_bytes = a.a_bytes;
             ka_fetch = a.a_kind = Tp_hw.Defs.Fetch;
             ka_fixed = a.a_must;
           })
         accs)
  in
  let branches = List.concat_map (fun s -> s.s_branches) steps in
  let jumps = List.concat_map (fun s -> s.s_jumps) steps in
  let bp_covered =
    Absint.btb_coverage p.P.btb jumps + Absint.pht_coverage p.P.bhb branches
  in
  (* Config-level partition claim; whether the booted allocation
     honours it is the linter's job (the TP-COLOUR and TP-CLONE
     rules), and the 3-domain exhaustive check exercises the coloured
     placement. *)
  let cl =
    Certify.closure (C.flush_plan p cfg)
      ~partitioned:(cfg.colour_user && cfg.clone_kernel)
      ~cat:cfg.cat_llc
  in
  let covered = function
    | Certify.L1d -> cov.Absint.kc_l1d
    | L1i -> cov.kc_l1i
    | Tlb -> cov.kc_dtlb + cov.kc_itlb + cov.kc_l2tlb
    | Bp -> bp_covered
    | Llc -> 0
  in
  let open_note ch =
    let residue what =
      Printf.sprintf "open: residue after the path's deterministic %s coverage"
        what
    in
    match ch with
    | Certify.L1d -> residue "data-line"
    | L1i -> residue "instruction-line"
    | Tlb -> residue "translation"
    | Bp ->
        "open: residue after BTB/PHT coverage of the path's deterministic \
         branches through the modelled index hashes"
    | Llc ->
        "open: physically-indexed, image placement is allocation-dependent \
         — zero coverage"
  in
  let pad_bound = Lint.pad_bound p cfg in
  let op_bound = op_bound_of path p cfg in
  (* The clone/destroy duration is visible to the caller (it is not
     padded away like the switch).  From a fully scrubbed/partitioned
     machine state the cost is deterministic — every sweep runs cold —
     so it encodes nothing; otherwise it varies with the incoming
     cache/TLB/BP state the configuration left open.  The switch's
     [op_bound] is 0, so it contributes nothing either way. *)
  let op_deterministic =
    cl.cl_l1 && cl.cl_l2 && cl.cl_llc && cl.cl_tlb && cl.cl_bp
  in
  {
    k_platform = p.P.name;
    k_config_name = config_name;
    k_config = cfg;
    k_path = path;
    k_steps = steps;
    k_bounds =
      Certify.bounds p cl ~raw:(Certify.capacity p) ~covered ~open_note;
    k_timing_bits =
      Certify.pad_slack ~bound:pad_bound ~pad:cfg.pad_cycles
      + (if op_deterministic then 0
         else Certify.pad_slack ~bound:op_bound ~pad:0);
    k_pad_bound = pad_bound;
    k_pad_effective = cfg.pad_cycles;
    k_op_bound = op_bound;
    k_exhaustive = exhaustive;
    k_exclusions = Certify.exclusions;
  }

(* ------------------------------------------------------------------ *)
(* Soundness canary                                                    *)

let timing_capacity ~path (p : P.t) (cfg : C.t) =
  Certify.pad_slack ~bound:(Lint.pad_bound p cfg) ~pad:0
  + Certify.pad_slack ~bound:(op_bound_of path p cfg) ~pad:0

let analytic_worst_bits ?(path = Switch) (p : P.t) (cfg : C.t) =
  List.fold_left (fun a ch -> a + Certify.capacity p ch) 0 Certify.channels
  + timing_capacity ~path p cfg

let check_sound (p : P.t) (c : cert) =
  let bad =
    List.filter_map
      (fun b ->
        if b.Certify.b_bits > b.b_raw then
          Some
            (Printf.sprintf "%s: certified %d bits > structural capacity %d"
               (Certify.channel_name b.b_channel)
               b.b_bits b.b_raw)
        else None)
      c.k_bounds
  in
  let tcap = timing_capacity ~path:c.k_path p c.k_config in
  let bad =
    if c.k_timing_bits > tcap then
      Printf.sprintf "timing: certified %d bits > pad+operation capacity %d"
        c.k_timing_bits tcap
      :: bad
    else bad
  in
  let worst = analytic_worst_bits ~path:c.k_path p c.k_config in
  let bad =
    if total_bits c > worst then
      Printf.sprintf
        "total: certified %d bits > Bounds-derived analytic worst case %d"
        (total_bits c) worst
      :: bad
    else bad
  in
  List.map
    (fun msg ->
      Diag.error ~rule:Lint.rule_kcert_unsound
        ~context:
          [
            ("platform", c.k_platform);
            ("config", c.k_config_name);
            ("path", path_slug c.k_path);
          ]
        (Printf.sprintf
           "kernel certificate for %s/%s/%s exceeds its analytic envelope — \
            the certifier is unsound: %s"
           c.k_platform c.k_config_name (path_slug c.k_path) msg))
    bad

let lint_crosscheck (p : P.t) ~config_name (cfg : C.t) =
  List.concat_map
    (fun path -> check_sound p (certify ~path p ~config_name cfg))
    Certify.all_kernel_paths

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)

let subject c =
  Printf.sprintf "certify-kernel %s %s %s" c.k_platform c.k_config_name
    (path_slug c.k_path)

let report (c : cert) =
  let findings =
    List.filter_map
      (fun b ->
        if b.Certify.b_bits = 0 then None
        else
          Some
            (Diag.error ~rule:(channel_rule b.b_channel)
               ~context:
                 [
                   ("path", path_slug c.k_path);
                   ("bits", string_of_int b.b_bits);
                   ("raw_bits", string_of_int b.b_raw);
                   ("covered", string_of_int b.b_covered);
                   ("note", b.b_note);
                 ]
               (Printf.sprintf
                  "%s channel not closed across the kernel %s path: certified \
                   bound %d bits (%s)"
                  (Certify.channel_name b.b_channel)
                  (path_slug c.k_path) b.b_bits b.b_note)))
      c.k_bounds
  in
  let findings =
    if c.k_timing_bits = 0 then findings
    else
      findings
      @ [
          Diag.error ~rule:rule_pad_timing
            ~context:
              [
                ("path", path_slug c.k_path);
                ("bits", string_of_int c.k_timing_bits);
                ("pad_effective", string_of_int c.k_pad_effective);
                ("pad_bound", string_of_int c.k_pad_bound);
                ("op_bound", string_of_int c.k_op_bound);
              ]
            (Printf.sprintf
               "kernel %s path timing not closed: pad %d vs bound %d, \
                operation bound %d \xe2\x87\x92 up to %d timing bits per \
                execution"
               (path_slug c.k_path) c.k_pad_effective c.k_pad_bound
               c.k_op_bound c.k_timing_bits);
        ]
  in
  let findings =
    match c.k_exhaustive with
    | Some r when total_bits c = 0 && r.Certify.ex_counterexample <> None ->
        findings
        @ [
            Diag.error ~rule:rule_xcheck
              (Printf.sprintf
                 "kernel %s-path certificate claims 0 bits but the %d-domain \
                  small-scope check found a distinguishing schedule (%s) on %s"
                 (path_slug c.k_path) r.Certify.ex_domains
                 (match r.Certify.ex_counterexample with
                 | Some cx -> cx.Certify.cx_schedule
                 | None -> "?")
                 r.Certify.ex_platform);
          ]
    | _ -> findings
  in
  { Diag.subject = subject c; findings }

let pp ppf (c : cert) =
  Format.fprintf ppf
    "%s: certified per-execution leakage bound %d bits (%s)@." (subject c)
    (total_bits c)
    (if total_bits c = 0 then "tight: noninterference" else "residue");
  List.iter
    (fun b ->
      Format.fprintf ppf "  %-16s %5d bits (raw %5d, covered %4d)  %s@."
        (Certify.channel_name b.Certify.b_channel)
        b.b_bits b.b_raw b.b_covered b.b_note)
    c.k_bounds;
  Format.fprintf ppf "  %-16s %5d bits (pad %d vs bound %d, op bound %d)@."
    "timing" c.k_timing_bits c.k_pad_effective c.k_pad_bound c.k_op_bound;
  (match c.k_exhaustive with
  | None -> ()
  | Some r ->
      Format.fprintf ppf
        "  exhaustive: %d domains, %d schedules x %d secrets on %s: %s@."
        r.Certify.ex_domains r.Certify.ex_schedules
        (List.length r.Certify.ex_secrets)
        r.Certify.ex_platform
        (match r.Certify.ex_counterexample with
        | None -> "pass"
        | Some cx -> "COUNTEREXAMPLE " ^ cx.Certify.cx_schedule));
  Format.fprintf ppf "  steps: %d (lifted from the kernel %s path)@."
    (List.length c.k_steps) (path_slug c.k_path)

(* ------------------------------------------------------------------ *)
(* Deterministic artifact JSON + digest                                *)

let kind_name = function
  | Tp_hw.Defs.Read -> "R"
  | Tp_hw.Defs.Write -> "W"
  | Tp_hw.Defs.Fetch -> "F"

let access_json a =
  Printf.sprintf
    "{\"what\":\"%s\",\"vaddr\":\"0x%x\",\"bytes\":%d,\"kind\":\"%s\",\"must\":%b}"
    (Json.escape a.a_what) a.a_vaddr a.a_bytes (kind_name a.a_kind)
    a.a_must

let step_json s =
  Printf.sprintf
    "{\"index\":%d,\"name\":\"%s\",\"flushes\":[%s],\"accesses\":[%s],\"branches\":[%s],\"jumps\":[%s]}"
    s.s_index
    (Json.escape s.s_name)
    (String.concat ","
       (List.map (fun fl -> "\"" ^ Json.escape fl ^ "\"") s.s_flushes))
    (String.concat "," (List.map access_json s.s_accesses))
    (String.concat ","
       (List.map
          (fun (site, taken, n) -> Printf.sprintf "[\"0x%x\",%b,%d]" site taken n)
          s.s_branches))
    (String.concat ","
       (List.map (fun site -> Printf.sprintf "\"0x%x\"" site) s.s_jumps))

let bound_json (b : Certify.bound) =
  Printf.sprintf
    "{\"channel\":\"%s\",\"bits\":%d,\"raw_bits\":%d,\"covered\":%d,\"scrubbed\":%b,\"note\":\"%s\"}"
    (Json.escape (Certify.channel_name b.b_channel))
    b.b_bits b.b_raw b.b_covered b.b_scrubbed
    (Json.escape b.b_note)

(* The record's fields in order; [pad_cycles], the one integer field,
   sits after [disable_prefetcher]. *)
let config_json (cfg : C.t) =
  let fields =
    List.concat_map
      (fun m ->
        let field = Printf.sprintf "\"%s\":%b" m.C.key (m.C.get cfg) in
        if m.C.key = "disable_prefetcher" then
          [ field; Printf.sprintf "\"pad_cycles\":%d" cfg.pad_cycles ]
        else [ field ])
      C.mechanisms
  in
  "{" ^ String.concat "," fields ^ "}"

(* The digested core: everything except the exhaustive block, so that
   a consumer that cannot afford the model check (the campaign daemon
   records a digest per trial) still computes the identical digest. *)
let core_json (c : cert) =
  Printf.sprintf
    "{\"schema\":\"%s\",\"platform\":\"%s\",\"config_name\":\"%s\",\"path\":\"%s\",\"config\":%s,\"certified_bits\":%d,\"state_bits\":%d,\"timing_bits\":%d,\"pad_effective\":%d,\"pad_bound\":%d,\"op_bound\":%d,\"channels\":[%s],\"steps\":[%s],\"exclusions\":[%s]}"
    (Json.escape schema)
    (Json.escape c.k_platform)
    (Json.escape c.k_config_name)
    (Json.escape (path_slug c.k_path))
    (config_json c.k_config) (total_bits c) (state_bits c) c.k_timing_bits
    c.k_pad_effective c.k_pad_bound c.k_op_bound
    (String.concat "," (List.map bound_json c.k_bounds))
    (String.concat "," (List.map step_json c.k_steps))
    (String.concat ","
       (List.map (fun e -> "\"" ^ Json.escape e ^ "\"") c.k_exclusions))

let digest c = Digest.to_hex (Digest.string (core_json c))

let to_json (c : cert) =
  let core = core_json c in
  let body = String.sub core 0 (String.length core - 1) in
  Printf.sprintf "%s,%s\"digest\":\"%s\"}" body
    (match c.k_exhaustive with
    | None -> ""
    | Some r ->
        Printf.sprintf "\"exhaustive\":%s," (Certify.exhaustive_to_json r))
    (digest c)

let artifact_name c =
  Printf.sprintf "%s-%s-%s.cert.json" c.k_platform c.k_config_name
    (path_slug c.k_path)
