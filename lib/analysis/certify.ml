(* The leakage certifier behind `tpsim certify`.

   Two cooperating halves:

   - {b certify_view}: from the same pure {!Lint.view} the partition
     linter uses, derive a sound per-channel upper bound (in bits) on
     what one domain can transfer to another through each
     microarchitectural channel, specialised by the configuration:
     a channel scrubbed on every domain switch (flush), or spatially
     partitioned (colouring + kernel clone, CAT), certifies to 0 bits;
     an open channel certifies to its structural capacity — or, when a
     concrete guest program is supplied, to the {!Absint} footprint
     bound, whichever is smaller.  The step from a closure to bits
     ({!bounds}), the structural {!capacity} and the {!pad_slack} are
     the kernel certifier's too: {!Kcert} feeds them its lifted paths'
     coverage.

   - {b exhaustive}: small-scope model checking on a {!Tp_hw.Shrink}
     machine: enumerate every two-domain schedule of a short horizon,
     run a leaky victim under each of several secrets, and require
     every attacker observation (absolute timestamps and probe/branch
     latencies) to be bit-identical across secrets — observational
     determinism.  A failure yields a concrete distinguishing schedule.

   The two cross-validate: a certificate of 0 bits must imply the
   exhaustive check passes ({!crosscheck} emits
   [CERT-XCHECK-EXHAUSTIVE] when it does not), and measured MI on any
   harness fixture must stay below the certified bound (asserted in
   the test suite).

   What the certificate does {e not} cover is stated, not implied:
   {!exclusions} lists the residual channels outside the five certified
   ones — prefetcher stream state (the §5.3.2 residual this repo
   reproduces), DRAM row buffers, interconnect contention, and
   interrupt arrival timing. *)

module C = Tp_kernel.Config
module P = Tp_hw.Platform
module Json = Tp_util.Json

(* ------------------------------------------------------------------ *)
(* Rule identifiers                                                    *)

let rule_l1d_residue = "CERT-L1D-RESIDUE"
let rule_l1i_residue = "CERT-L1I-RESIDUE"
let rule_tlb_residue = "CERT-TLB-RESIDUE"
let rule_btb_residue = "CERT-BTB-RESIDUE"
let rule_llc_residue = "CERT-LLC-RESIDUE"
let rule_pad_timing = "CERT-PAD-TIMING"
let rule_noninterference = "CERT-NONINTERFERENCE"
let rule_xcheck = "CERT-XCHECK-EXHAUSTIVE"

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)

type channel = L1d | L1i | Tlb | Bp | Llc

let channel_name = function
  | L1d -> "L1-D"
  | L1i -> "L1-I"
  | Tlb -> "TLB"
  | Bp -> "branch-predictor"
  | Llc -> "LLC"

let channel_rule = function
  | L1d -> rule_l1d_residue
  | L1i -> rule_l1i_residue
  | Tlb -> rule_tlb_residue
  | Bp -> rule_btb_residue
  | Llc -> rule_llc_residue

let channels = [ L1d; L1i; Tlb; Bp; Llc ]

type bound = {
  b_channel : channel;
  b_raw : int;  (** bits reachable with no protection at all *)
  b_covered : int;  (** ways pinned to public content; 0 for guests *)
  b_bits : int;  (** certified bound under this configuration *)
  b_scrubbed : bool;
  b_note : string;  (** why the bound is what it is *)
}

type cert = {
  c_subject : string;
  c_platform : string;
  c_config : C.t;
  c_n_domains : int;
  c_bounds : bound list;
  c_timing_bits : int;
      (** pad-slack pseudo-channel: 0 when the effective pad covers the
          analytic worst-case switch cost *)
  c_pad_bound : int;
  c_pad_effective : int;
  c_program : string option;  (** program-level bound, if any *)
  c_exclusions : string list;
}

let state_bits c = List.fold_left (fun a b -> a + b.b_bits) 0 c.c_bounds
let total_bits c = state_bits c + c.c_timing_bits

let exclusions =
  [
    "prefetcher stream state: no architected flush exists (the \
     \xc2\xa75.3.2 residual channel this repo reproduces); certified \
     only when the prefetcher is absent or disabled";
    "DRAM row-buffer state: the bank hash defeats page colouring and \
     no architected precharge-all exists (\xc2\xa72.2 taxonomy)";
    "interconnect/bus contention: a concurrent-execution channel, \
     closed by gang scheduling, not by switch-time scrubbing \
     (\xc2\xa76.1)";
    "interrupt arrival timing: bounded by IRQ partitioning policy, \
     not by this certificate (\xc2\xa75.3.5)";
  ]

(* A duration anywhere in [pad, bound] is one of [n = bound - pad + 1]
   distinguishable values: ⌈log₂ n⌉ bits, none when [n <= 1]. *)
let pad_slack ~bound ~pad =
  let n = bound - pad + 1 in
  let rec go k acc = if acc >= n then k else go (k + 1) (2 * acc) in
  go 0 1

let cache_lines (g : Tp_hw.Cache.geometry) = Tp_hw.Cache.sets g * g.ways
let l2_lines (p : P.t) = match p.l2 with Some g -> cache_lines g | None -> 0

(* Structural capacity: one bit per line, entry or counter whose state
   can survive a switch.  The outer-cache channel spans both
   physically-indexed levels. *)
let capacity (p : P.t) = function
  | L1d -> cache_lines p.l1d
  | L1i -> cache_lines p.l1i
  | Tlb -> p.itlb.entries + p.dtlb.entries + p.l2tlb.entries
  | Bp -> p.btb.entries + p.bhb.pht_entries
  | Llc -> l2_lines p + cache_lines p.llc

(* Structural facts from the view: is the claimed spatial partition
   actually in force?  (Same facts the linter checks; recomputed here
   so a certificate never depends on finding ordering.) *)

let rec pairwise f = function
  | [] | [ _ ] -> true
  | x :: tl -> List.for_all (f x) tl && pairwise f tl

let colour_partition_ok (v : Lint.view) =
  v.v_config.colour_user
  && pairwise
       (fun a b -> Tp_kernel.Colour.disjoint a.Lint.dv_colours b.Lint.dv_colours)
       v.v_domains

let clone_ok (v : Lint.view) =
  v.v_config.clone_kernel
  && List.for_all
       (fun d ->
         d.Lint.dv_kernel <> v.v_initial_kernel
         && List.for_all (fun (_, k) -> k = d.Lint.dv_kernel) d.dv_thread_kernels)
       v.v_domains
  && pairwise (fun a b -> a.Lint.dv_kernel <> b.Lint.dv_kernel) v.v_domains

let cat_ok (v : Lint.view) =
  v.v_config.cat_llc
  && List.for_all (fun d -> d.Lint.dv_cat_mask <> None) v.v_domains
  && pairwise
       (fun a b ->
         match (a.Lint.dv_cat_mask, b.Lint.dv_cat_mask) with
         | Some m1, Some m2 -> m1 land m2 = 0
         | _ -> false)
       v.v_domains

(* Which certified channels a configuration closes.  The switch-flush
   plan scrubs some on every switch; a spatial partition closes the
   outer levels — [partitioned] (coloured userland + cloned kernels)
   both, [cat] (disjoint CAT way masks) the LLC ways only.  The
   partition facts are the caller's: {!certify_view} checks them on the
   booted view, {!Kcert} takes the configuration's claim. *)
type closure = {
  cl_l1 : bool;
  cl_tlb : bool;
  cl_bp : bool;
  cl_l2 : bool;
  cl_llc : bool;
  cl_llc_flushed : bool;
  cl_partitioned : bool;
}

let closure plan ~partitioned ~cat =
  let has step = List.mem step plan in
  {
    cl_l1 = has Tp_hw.Flush.L1_hw || has Tp_hw.Flush.L1_manual;
    cl_tlb = has Tp_hw.Flush.Tlb;
    cl_bp = has Tp_hw.Flush.Bp;
    cl_l2 = has Tp_hw.Flush.L2 || partitioned;
    cl_llc = has Tp_hw.Flush.Llc || partitioned || cat;
    cl_llc_flushed = has Tp_hw.Flush.Llc;
    cl_partitioned = partitioned;
  }

(* The five bounds of a closure.  A closed channel certifies to 0 bits;
   an open one to its [raw] bits less the [covered] ways the caller
   proved pinned to public content.  The outer-cache channel splits:
   colouring + kernel clone partition both physically-indexed levels;
   CAT partitions the LLC ways only and leaves a private L2 untouched
   (§2.3), so its [raw] bits fill the L2 first. *)
let bounds (p : P.t) cl ~raw ~covered ~open_note =
  let bound ch raw ~open_bits ~scrubbed note =
    let covered = min (covered ch) raw in
    {
      b_channel = ch;
      b_raw = raw;
      b_covered = covered;
      b_bits = max 0 (open_bits - covered);
      b_scrubbed = scrubbed;
      b_note = note;
    }
  in
  let flush_note flag = Printf.sprintf "scrubbed on every switch (%s)" flag in
  let flushed ch closed flag =
    let raw = raw ch in
    bound ch raw
      ~open_bits:(if closed then 0 else raw)
      ~scrubbed:closed
      (if closed then flush_note flag else open_note ch)
  in
  let outer =
    let raw = raw Llc in
    let l2 = min raw (l2_lines p) in
    let open_bits =
      (if cl.cl_l2 then 0 else l2) + if cl.cl_llc then 0 else raw - l2
    in
    bound Llc raw ~open_bits ~scrubbed:(open_bits = 0)
      (if cl.cl_llc_flushed then flush_note "flush_llc"
       else if cl.cl_partitioned then
         "partitioned by page colour (coloured userland + cloned kernel)"
       else if cl.cl_llc && not cl.cl_l2 then
         "CAT masks partition the LLC ways but leave the private L2 open"
       else if cl.cl_llc then "flushed/partitioned at every level"
       else open_note Llc)
  in
  [
    flushed L1d cl.cl_l1 "flush_l1";
    flushed L1i cl.cl_l1 "flush_l1";
    flushed Tlb cl.cl_tlb "flush_tlb";
    flushed Bp cl.cl_bp "flush_bp";
    outer;
  ]

(* Effective pad: the configured pad floor and every domain kernel's
   own pad attribute — the minimum is what a switch actually pads to
   (mirrors the linter's pad-sufficiency check). *)
let effective_pad (v : Lint.view) =
  let kv_pads =
    List.filter_map
      (fun d ->
        List.find_opt (fun k -> k.Lint.kv_id = d.Lint.dv_kernel) v.v_kernels)
      v.v_domains
    |> List.map (fun k -> k.Lint.kv_pad)
  in
  List.fold_left min v.v_pad kv_pads

let certify_view ?subject ?program_summary ?program_name (v : Lint.view) =
  let p = v.v_platform and cfg = v.v_config in
  let n_domains = List.length v.v_domains in
  let single = n_domains < 2 in
  (* Program-level footprints tighten the structural capacities. *)
  let raw =
    match program_summary with
    | None -> capacity p
    | Some s ->
        fun ch ->
          min (capacity p ch)
            (match ch with
            | L1d -> s.Absint.sm_l1d
            | L1i -> s.sm_l1i
            | Tlb -> s.sm_tlb
            | Bp -> s.sm_bp
            | Llc -> s.sm_llc)
  in
  let open_note ch =
    Printf.sprintf "open: %s survive the switch"
      (match ch with
      | L1d -> "data lines"
      | L1i -> "instruction lines"
      | Tlb -> "translations"
      | Bp -> "BTB entries and PHT counters"
      | Llc -> "physically-indexed lines")
  in
  let bounds =
    bounds p ~raw ~covered:(fun _ -> 0) ~open_note
      (closure (C.flush_plan p cfg)
         ~partitioned:(colour_partition_ok v && clone_ok v)
         ~cat:(cat_ok v))
  in
  (* With fewer than two domains no one receives: every channel closes. *)
  let bounds =
    if not single then bounds
    else
      List.map
        (fun b ->
          {
            b with
            b_bits = 0;
            b_scrubbed = true;
            b_note = "fewer than two domains: no receiver";
          })
        bounds
  in
  let pad_bound = Lint.pad_bound p cfg in
  let pad_eff = effective_pad v in
  {
    c_subject =
      (match subject with
      | Some s -> s
      | None -> Printf.sprintf "certify %s" p.name);
    c_platform = p.name;
    c_config = cfg;
    c_n_domains = n_domains;
    c_bounds = bounds;
    c_timing_bits =
      (if single then 0 else pad_slack ~bound:pad_bound ~pad:pad_eff);
    c_pad_bound = pad_bound;
    c_pad_effective = pad_eff;
    c_program = program_name;
    c_exclusions = exclusions;
  }

let certify_static ?subject b =
  certify_view ?subject (Lint.view_of_booted b)

let certify_fixture ?subject (v : Lint.view) (f : Ctcheck.fixture) =
  let s =
    Absint.analyse v.v_platform f.fx_program ~public:f.fx_public
  in
  let subject =
    match subject with
    | Some s -> s
    | None ->
        Printf.sprintf "certify %s %s" v.v_platform.name f.fx_program.p_name
  in
  certify_view ~subject ~program_summary:s
    ~program_name:f.fx_program.p_name v

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)

let report (c : cert) =
  let findings =
    List.filter_map
      (fun b ->
        if b.b_bits = 0 then None
        else
          Some
            (Diag.error ~rule:(channel_rule b.b_channel)
               ~context:
                 [
                   ("bits", string_of_int b.b_bits);
                   ("raw_bits", string_of_int b.b_raw);
                   ("note", b.b_note);
                 ]
               (Printf.sprintf
                  "%s channel not closed by this configuration: certified \
                   bound %d bits (%s)"
                  (channel_name b.b_channel) b.b_bits b.b_note)))
      c.c_bounds
  in
  let findings =
    if c.c_timing_bits = 0 then findings
    else
      findings
      @ [
          Diag.error ~rule:rule_pad_timing
            ~context:
              [
                ("bits", string_of_int c.c_timing_bits);
                ("pad_effective", string_of_int c.c_pad_effective);
                ("pad_bound", string_of_int c.c_pad_bound);
              ]
            (Printf.sprintf
               "switch latency underpadded: effective pad %d < worst-case %d \
                \xe2\x87\x92 up to %d timing bits per switch"
               c.c_pad_effective c.c_pad_bound c.c_timing_bits);
        ]
  in
  { Diag.subject = c.c_subject; findings }

let pp ppf (c : cert) =
  Format.fprintf ppf "%s: certified leakage bound %d bits (%s)@." c.c_subject
    (total_bits c)
    (if total_bits c = 0 then "tight: noninterference" else "residue");
  (match c.c_program with
  | Some p -> Format.fprintf ppf "  program: %s (footprint-tightened)@." p
  | None -> Format.fprintf ppf "  program: none (structural capacities)@.");
  List.iter
    (fun b ->
      Format.fprintf ppf "  %-16s %5d bits (raw %5d)  %s@."
        (channel_name b.b_channel) b.b_bits b.b_raw b.b_note)
    c.c_bounds;
  Format.fprintf ppf "  %-16s %5d bits (pad %d vs bound %d)@." "timing"
    c.c_timing_bits c.c_pad_effective c.c_pad_bound;
  Format.fprintf ppf "  not covered:@.";
  List.iter (fun e -> Format.fprintf ppf "    - %s@." e) c.c_exclusions

let channel_json (b : bound) =
  Printf.sprintf
    "{\"channel\":\"%s\",\"bits\":%d,\"raw_bits\":%d,\"scrubbed\":%b,\"note\":\"%s\"}"
    (Json.escape (channel_name b.b_channel))
    b.b_bits b.b_raw b.b_scrubbed (Json.escape b.b_note)

let cert_to_json (c : cert) =
  Printf.sprintf
    "{\"subject\":\"%s\",\"platform\":\"%s\",\"domains\":%d,\"certified_bits\":%d,\"state_bits\":%d,\"timing_bits\":%d,\"pad_effective\":%d,\"pad_bound\":%d,%s\"channels\":[%s],\"exclusions\":[%s]}"
    (Json.escape c.c_subject)
    (Json.escape c.c_platform)
    c.c_n_domains (total_bits c) (state_bits c) c.c_timing_bits
    c.c_pad_effective c.c_pad_bound
    (match c.c_program with
    | Some p -> Printf.sprintf "\"program\":\"%s\"," (Json.escape p)
    | None -> "")
    (String.concat "," (List.map channel_json c.c_bounds))
    (String.concat ","
       (List.map (fun e -> "\"" ^ Json.escape e ^ "\"") c.c_exclusions))

(* ------------------------------------------------------------------ *)
(* Small-scope exhaustive noninterference check                        *)

(* The victim: a square-and-multiply-shaped loop over the secret's
   bits.  Every iteration touches two lines of [a]; a set bit
   additionally sweeps all of [b] (filling the tiny L1-D), touches the
   [c] and [d] pages (TLB pressure: 4 data pages vs a 4-entry DTLB)
   and runs a second loop (extra branch sites, I-fetches, PHT
   updates). *)
let small_victim : Ct_ir.program =
  {
    p_name = "cert-victim";
    p_arrays = [ ("a", 64); ("b", 64); ("c", 8); ("d", 8) ];
    p_params = [ (0, "key", Secret); (1, "nbits", Public) ];
    p_body =
      [
        Set (2, Int 0);
        While
          ( Bin (Lt, Reg 2, Reg 1),
            [
              Load (3, "a", Int 0);
              Load (3, "a", Int 8);
              Set (4, Bin (And, Bin (Shr, Reg 0, Reg 2), Int 1));
              If
                ( Reg 4,
                  [
                    Set (5, Int 0);
                    While
                      ( Bin (Lt, Reg 5, Int 64),
                        [
                          Load (6, "b", Reg 5);
                          Set (5, Bin (Add, Reg 5, Int 8));
                        ] );
                    Load (6, "c", Int 0);
                    Load (6, "d", Int 0);
                  ],
                  [] );
              Set (2, Bin (Add, Reg 2, Int 1));
            ] );
      ];
  }

type counterexample = {
  cx_schedule : string;
  cx_secret_a : int;
  cx_secret_b : int;
  cx_turn : int;  (** attacker-turn ordinal within the schedule *)
  cx_index : int;  (** observation index within that turn *)
  cx_obs_a : int;
  cx_obs_b : int;
}

type exhaustive_result = {
  ex_platform : string;
  ex_domains : int;
  ex_horizon : int;
  ex_schedules : int;
  ex_secrets : int list;
  ex_counterexample : counterexample option;
}

let horizon = 4
let secrets = [ 0; 5; 10; 15 ]

(* One attacker turn: the absolute timestamp, a prime+probe pass over
   two even pages (its colour under the 2-colour shrink), and four
   conditional branches.  Latencies expose L1-D/TLB/L2/LLC residency;
   branch latencies expose PHT state; the timestamp exposes padding
   failures. *)
let attacker_turn m ~core tiny =
  let obs = ref [ Tp_hw.Machine.cycles m ~core ] in
  for pg = 0 to 1 do
    let base = 0x3000_0000 + (pg * 2 * Tp_hw.Defs.page_size) in
    let lines = Tp_hw.Defs.page_size / tiny.P.line in
    for i = 0 to lines - 1 do
      let a = base + (i * tiny.P.line) in
      obs :=
        Tp_hw.Machine.access m ~core ~asid:1 ~vaddr:a ~paddr:a
          ~kind:Tp_hw.Defs.Read ()
        :: !obs
    done
  done;
  for i = 0 to 3 do
    let a = 0x4000_0000 + (i * 64) in
    obs :=
      Tp_hw.Machine.cond_branch m ~core ~asid:1 ~vaddr:a ~paddr:a
        ~taken:(i land 1 = 0)
      :: !obs
  done;
  List.rev !obs

(* One turn of the deterministic public neighbour (domain D of the
   3-domain check): a fixed sweep of one even page and two always-taken
   branches, independent of every secret.  D makes no observations —
   it exists so that secret-dependent state left by the victim can
   perturb D's timing, and D's perturbed footprint in turn shift a
   {e later} attacker turn: the transitive V→D→A channel a two-domain
   enumeration cannot exhibit.  Even-page parity is deliberate: the
   2-colour shrink cannot give three domains disjoint colours, so D
   shares the attacker's colour (a coloured victim stays isolated on
   the odd pages, exactly as a real 2-colour allocation would fold the
   extra domain onto an existing colour). *)
let neighbour_turn m ~core tiny =
  let base = 0x5000_0000 in
  let lines = Tp_hw.Defs.page_size / tiny.P.line in
  for i = 0 to lines - 1 do
    let a = base + (i * tiny.P.line) in
    ignore
      (Tp_hw.Machine.access m ~core ~asid:2 ~vaddr:a ~paddr:a
         ~kind:Tp_hw.Defs.Read ())
  done;
  for i = 0 to 1 do
    let a = base + (2 * Tp_hw.Defs.page_size) + (i * 64) in
    ignore (Tp_hw.Machine.cond_branch m ~core ~asid:2 ~vaddr:a ~paddr:a ~taken:true)
  done

(* Which lifted kernel path a certificate (and its exhaustive
   cross-check) covers.  The 'D' turn of the 3-domain schedule model is
   the kernel operating on the neighbour's behalf: a plain switch, a
   clone of its image, or the teardown of one — each with its own
   deterministic footprint. *)
type kernel_path = Switch | Clone | Destroy

let kernel_path_slug = function
  | Switch -> "switch"
  | Clone -> "clone"
  | Destroy -> "destroy"

let all_kernel_paths = [ Switch; Clone; Destroy ]

(* The neighbour's turn under each lifecycle path.  Clone performs the
   coloured-pool page copy ({!Tp_hw.Shrink.clone_op}) plus the clone
   handler's two always-taken loop branches; Destroy performs the
   IPI-barrier write + shootdown ({!Tp_hw.Shrink.destroy_op}).  All
   addresses stay on the neighbour's (even) parity, like
   {!neighbour_turn}. *)
let lifecycle_turn m ~core tiny = function
  | Switch -> neighbour_turn m ~core tiny
  | Clone ->
      let page = Tp_hw.Defs.page_size in
      let base = 0x5000_0000 in
      ignore (Tp_hw.Shrink.clone_op m ~core ~asid:2 ~src:base ~dst:(base + (2 * page)));
      for i = 0 to 1 do
        let a = base + (4 * page) + (i * 64) in
        ignore (Tp_hw.Machine.cond_branch m ~core ~asid:2 ~vaddr:a ~paddr:a ~taken:true)
      done
  | Destroy ->
      ignore
        (Tp_hw.Shrink.destroy_op m ~core ~asid:2
           ~barrier:(0x5000_0000 + (6 * Tp_hw.Defs.page_size)))

(* The configuration's switch-flush plan at machine scope: the x86
   manual L1 sweep is a kernel-layer construction, so the architected
   flush stands in for it.  Row-buffer state is outside the small scope
   (see {!exclusions}): the scrub always ends with a precharge, so the
   check exercises the five certified channels, not the
   known-uncloseable one. *)
let scrub_of_config p (cfg : C.t) =
  List.filter_map
    (function
      | Tp_hw.Flush.L1_manual -> Some Tp_hw.Flush.L1_hw
      | Tp_hw.Flush.Dram_close -> None
      | step -> Some step)
    (C.flush_plan p cfg)
  @ [ Tp_hw.Flush.Dram_close ]

(* Victim placement: with colouring, the victim owns the odd pages of
   the 2-colour shrink (data, and its branch-site code page); without,
   it allocates from the same (even) pool the attacker probes. *)
let victim_layout (cfg : C.t) =
  let parity = if cfg.colour_user then Tp_hw.Defs.page_size else 0 in
  let page k = 0x1000_0000 + (2 * k * Tp_hw.Defs.page_size) + parity in
  ( [ ("a", page 0); ("b", page 1); ("c", page 2); ("d", page 3) ],
    0x2000_0000 + parity )

let run_schedule ?(path = Switch) tiny (cfg : C.t) sched secret =
  let m = Tp_hw.Machine.create tiny in
  let core = 0 in
  let scrub = scrub_of_config tiny cfg in
  let arrays_at, code_at = victim_layout cfg in
  let obs = ref [] in
  String.iter
    (fun turn ->
      let t0 = Tp_hw.Machine.cycles m ~core in
      (match turn with
      | 'V' ->
          ignore
            (Ct_ir.execute ~arrays_at ~code_at m ~core small_victim
               ~inputs:[ (0, secret); (1, horizon) ])
      | 'D' -> lifecycle_turn m ~core tiny path
      | _ -> obs := attacker_turn m ~core tiny :: !obs);
      ignore (Tp_hw.Shrink.apply m ~core scrub);
      (* Pad the whole turn (work + scrub) to the configured slice
         boundary; an overrun stays visible, which is exactly the
         pad-failure channel. *)
      let now = Tp_hw.Machine.cycles m ~core in
      if now < t0 + cfg.pad_cycles then
        Tp_hw.Machine.add_cycles m ~core (t0 + cfg.pad_cycles - now))
    sched;
  List.rev !obs

let diff_observations a b =
  let rec turn i ta tb =
    match (ta, tb) with
    | [], [] -> None
    | oa :: ta', ob :: tb' -> (
        match obs i 0 oa ob with
        | Some d -> Some d
        | None -> turn (i + 1) ta' tb')
    | _ -> Some (i, -1, List.length ta, List.length tb)
  and obs i j oa ob =
    match (oa, ob) with
    | [], [] -> None
    | x :: oa', y :: ob' ->
        if x = y then obs i (j + 1) oa' ob' else Some (i, j, x, y)
    | _ -> Some (i, j, List.length oa, List.length ob)
  in
  turn 0 a b

let exhaustive ?(path = Switch) ~domains (p : P.t) (cfg : C.t) =
  let tiny = Tp_hw.Shrink.tiny p in
  let schedules = Tp_hw.Shrink.schedules ~domains ~horizon in
  let cx = ref None in
  List.iter
    (fun sched ->
      if !cx = None then
        match secrets with
        | [] -> ()
        | s0 :: rest ->
            let base = run_schedule ~path tiny cfg sched s0 in
            List.iter
              (fun s ->
                if !cx = None then
                  match
                    diff_observations base (run_schedule ~path tiny cfg sched s)
                  with
                  | None -> ()
                  | Some (turn, idx, va, vb) ->
                      cx :=
                        Some
                          {
                            cx_schedule = sched;
                            cx_secret_a = s0;
                            cx_secret_b = s;
                            cx_turn = turn;
                            cx_index = idx;
                            cx_obs_a = va;
                            cx_obs_b = vb;
                          })
              rest)
    schedules;
  {
    ex_platform = tiny.name;
    ex_domains = domains;
    ex_horizon = horizon;
    ex_schedules = List.length schedules;
    ex_secrets = secrets;
    ex_counterexample = !cx;
  }

let exhaustive_findings (r : exhaustive_result) =
  match r.ex_counterexample with
  | None -> []
  | Some cx ->
      [
        Diag.error ~rule:rule_noninterference
          ~context:
            [
              ("schedule", cx.cx_schedule);
              ("secret_a", string_of_int cx.cx_secret_a);
              ("secret_b", string_of_int cx.cx_secret_b);
              ("attacker_turn", string_of_int cx.cx_turn);
              ("observation", string_of_int cx.cx_index);
              ("value_a", string_of_int cx.cx_obs_a);
              ("value_b", string_of_int cx.cx_obs_b);
            ]
          (Printf.sprintf
             "distinguishing schedule %s: secrets %d/%d give attacker \
              observation %d vs %d (turn %d, index %d%s)"
             cx.cx_schedule cx.cx_secret_a cx.cx_secret_b cx.cx_obs_a
             cx.cx_obs_b cx.cx_turn cx.cx_index
             (if cx.cx_index = 0 then "; index 0 is the turn timestamp"
              else ""));
      ]

let exhaustive_to_json (r : exhaustive_result) =
  Printf.sprintf
    "{\"platform\":\"%s\",\"domains\":%d,\"horizon\":%d,\"schedules\":%d,\"secrets\":[%s],\"passed\":%b%s}"
    (Json.escape r.ex_platform)
    r.ex_domains r.ex_horizon r.ex_schedules
    (String.concat "," (List.map string_of_int r.ex_secrets))
    (r.ex_counterexample = None)
    (match r.ex_counterexample with
    | None -> ""
    | Some cx ->
        Printf.sprintf
          ",\"counterexample\":{\"schedule\":\"%s\",\"secret_a\":%d,\"secret_b\":%d,\"turn\":%d,\"index\":%d,\"obs_a\":%d,\"obs_b\":%d}"
          (Json.escape cx.cx_schedule)
          cx.cx_secret_a cx.cx_secret_b cx.cx_turn cx.cx_index cx.cx_obs_a
          cx.cx_obs_b)

let crosscheck (c : cert) (r : exhaustive_result) =
  let certified_zero = total_bits c = 0 in
  let passed = r.ex_counterexample = None in
  if certified_zero && not passed then
    [
      Diag.error ~rule:rule_xcheck
        (Printf.sprintf
           "certificate claims 0 bits but the small-scope check found a \
            distinguishing schedule (%s) on %s"
           (match r.ex_counterexample with
           | Some cx -> cx.cx_schedule
           | None -> "?")
           r.ex_platform);
    ]
  else []
