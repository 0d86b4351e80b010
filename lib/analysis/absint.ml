(* Abstract interpretation of Ct_ir guest programs over abstract
   microarchitectural state (the static half of `tpsim certify`).

   The value domain is an interval with a secret-taint flag.  The
   microarchitectural domains mirror Tp_hw set-wise, CacheAudit-style:
   for every set of every structure (L1-D, L1-I, the three TLBs, and
   the physically-indexed outer cache levels) we track three sets of
   granule tags —

   - [may]:  tags possibly resident after some execution,
   - [sx]:   tags whose residency may depend on the secret (inserted
             under secret-tainted control, or at a secret-tainted
             index),
   - [must]: tags definitely resident in every execution (inserted at a
             concrete index under definite, secret-independent
             control).

   The per-set leakage is [min (|sx \ must| , ways)] bits: a line that
   is resident regardless of the secret encodes nothing, and an
   attacker probing a [ways]-way set observes at most [ways] residency
   slots.  Branch-predictor occupancy is tracked as the set of branch
   sites whose reachability or direction is secret-dependent; each
   contributes the site's BTB line and its 2-bit PHT counter.

   [may] and [sx] only ever grow and joins are unions, so they live in
   global accumulators; [must] (joins intersect) and the register file
   are the branch-sensitive part of the state that gets copied and
   joined around [If]/[While].  Loops with a concrete public bound are
   unrolled concretely under a global fuel; everything else runs a
   join/widen fixpoint. *)

module Iset = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Value domain: intervals with secret taint                           *)

type aval = { lo : int; hi : int; sec : bool }

(* Saturation bound: anything at or beyond [big] means "unbounded on
   that side".  Small enough that interval arithmetic cannot overflow
   native ints. *)
let big = 1 lsl 48

let sat v = if v < -big then -big else if v > big then big else v

let mk ?(sec = false) lo hi =
  let lo = sat lo and hi = sat hi in
  (* A singleton that was not produced by saturation is a constant:
     its value cannot depend on the secret whatever fed into it. *)
  let sec = if lo = hi && abs lo < big then false else sec in
  { lo; hi; sec }

let top ~sec = { lo = -big; hi = big; sec }
let const n = mk n n
let is_bounded v = v.lo > -big && v.hi < big

let join_val a b =
  { lo = min a.lo b.lo; hi = max a.hi b.hi; sec = a.sec || b.sec }

(* Truth of [v <> 0]: [Some b] when decided by the interval. *)
let truth v =
  if v.lo = 0 && v.hi = 0 then Some false
  else if v.lo > 0 || v.hi < 0 then Some true
  else None

let next_pow2_mask n =
  let rec go m = if m >= n then m else go ((2 * m) + 1) in
  go 1

let binop op a b =
  let sec = a.sec || b.sec in
  let unbounded = top ~sec in
  match (op : Ct_ir.binop) with
  | Add -> mk ~sec (a.lo + b.lo) (a.hi + b.hi)
  | Sub -> mk ~sec (a.lo - b.hi) (a.hi - b.lo)
  | Mul ->
      if is_bounded a && is_bounded b
         && max (abs a.lo) (abs a.hi) < (1 lsl 24)
         && max (abs b.lo) (abs b.hi) < (1 lsl 24)
      then
        let c = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
        mk ~sec (List.fold_left min max_int c) (List.fold_left max min_int c)
      else unbounded
  | Div ->
      if b.lo = b.hi && b.lo <> 0 && is_bounded a then
        let c = [ a.lo / b.lo; a.hi / b.lo ] in
        mk ~sec (min (List.nth c 0) (List.nth c 1))
          (max (List.nth c 0) (List.nth c 1))
      else unbounded
  | Mod ->
      if b.lo > 0 && is_bounded b then
        if a.lo >= 0 then mk ~sec 0 (b.hi - 1)
        else mk ~sec (-(b.hi - 1)) (b.hi - 1)
      else unbounded
  | And ->
      if a.lo >= 0 && b.lo >= 0 then mk ~sec 0 (min a.hi b.hi) else unbounded
  | Or | Xor ->
      if a.lo >= 0 && b.lo >= 0 && is_bounded a && is_bounded b then
        mk ~sec 0 (next_pow2_mask (max a.hi b.hi))
      else unbounded
  | Shl ->
      if b.lo = b.hi && b.lo >= 0 && b.lo < 40
         && is_bounded a
         && max (abs a.lo) (abs a.hi) < (1 lsl 24)
      then mk ~sec (a.lo lsl b.lo) (a.hi lsl b.lo)
      else unbounded
  | Shr ->
      if b.lo = b.hi && b.lo >= 0 then mk ~sec (a.lo asr b.lo) (a.hi asr b.lo)
      else if b.lo >= 0 && a.lo >= 0 then
        (* asr is antitone in the shift for non-negative values *)
        mk ~sec (a.lo asr min b.hi 62) (a.hi asr b.lo)
      else unbounded
  | Lt ->
      if a.hi < b.lo then const 1
      else if a.lo >= b.hi then const 0
      else mk ~sec 0 1
  | Eq ->
      if a.lo = a.hi && b.lo = b.hi && a.lo = b.lo then const 1
      else if a.hi < b.lo || b.hi < a.lo then const 0
      else mk ~sec 0 1

(* ------------------------------------------------------------------ *)
(* Abstract microarchitectural structures                              *)

type slot = { mutable may : Iset.t; mutable sx : Iset.t }

type astruct = {
  st_name : string;
  st_ways : int;
  st_sets : int;
  st_shift : int;  (* log2 of the granule: line bits or page bits *)
  st_slots : slot array;
}

let make_struct st_name ~sets ~ways ~shift =
  {
    st_name;
    st_ways = ways;
    st_sets = sets;
    st_shift = shift;
    st_slots =
      Array.init sets (fun _ -> { may = Iset.empty; sx = Iset.empty });
  }

(* Execution context: is the current program point reached in every
   execution ([definite]), and is reaching it secret-dependent? *)
type ctx = { c_definite : bool; c_secret : bool }

type env = {
  structs : astruct array;
  data : int list;  (* struct indices touched by data accesses *)
  code : int list;  (* struct indices touched by instruction fetches *)
  arrays : (string * (int * int)) list;  (* name -> (base, len) *)
  code_at : int;
  mutable bp_sites : Iset.t;  (* secret-dependent branch sites *)
  mutable fuel : int;
}

(* Branch-sensitive part of the state. *)
type state = {
  regs : aval array;
  must : Iset.t array array;  (* must.(struct).(set) *)
}

let copy_state st =
  { regs = Array.copy st.regs; must = Array.map Array.copy st.must }

let join_state a b =
  {
    regs = Array.map2 join_val a.regs b.regs;
    must = Array.map2 (Array.map2 Iset.inter) a.must b.must;
  }

let blit_state dst src =
  Array.blit src.regs 0 dst.regs 0 (Array.length dst.regs);
  Array.iteri
    (fun i row -> Array.blit row 0 dst.must.(i) 0 (Array.length row))
    src.must

let equal_state a b =
  a.regs = b.regs && Array.for_all2 (Array.for_all2 Iset.equal) a.must b.must

(* Record an address-range touch on one structure.  [secidx] marks a
   secret-dependent choice of granule; a range the interval analysis
   pinned to a single granule is deterministic whatever the taint
   flag said. *)
let touch env st si ~ctx ~secidx alo ahi =
  let a = env.structs.(si) in
  let gl = alo asr a.st_shift and gh = ahi asr a.st_shift in
  let secidx = secidx && gl <> gh in
  for g = gl to gh do
    let set = g land (a.st_sets - 1) in
    let slot = a.st_slots.(set) in
    slot.may <- Iset.add g slot.may;
    if ctx.c_secret || secidx then slot.sx <- Iset.add g slot.sx;
    if ctx.c_definite && (not secidx) && gl = gh then
      st.must.(si).(set) <- Iset.add g st.must.(si).(set)
  done

let touch_many env st sis ~ctx ~secidx alo ahi =
  List.iter (fun si -> touch env st si ~ctx ~secidx alo ahi) sis

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)

let rec eval env st ctx (e : Ct_ir.expr) =
  match e with
  | Int n -> const n
  | Reg r -> st.regs.(r)
  | Bin (op, a, b) -> binop op (eval env st ctx a) (eval env st ctx b)

(* A branch at [site]: fetch of the branch instruction plus a
   direction-predictor update.  The site enters the BP channel when it
   is reached under secret control, or its direction is secret and not
   decided by the intervals. *)
let branch_event env st ctx site ~undecided_secret =
  let a = env.code_at + (site * 64) in
  touch_many env st env.code ~ctx ~secidx:false a a;
  if ctx.c_secret || undecided_secret then
    env.bp_sites <- Iset.add site env.bp_sites

let data_access env st ctx name idx =
  let base, len =
    match List.assoc_opt name env.arrays with
    | Some bl -> bl
    | None -> assert false (* validate already ran *)
  in
  let ilo = max idx.lo 0 and ihi = min idx.hi (len - 1) in
  if ilo <= ihi then
    touch_many env st env.data ~ctx ~secidx:idx.sec
      (base + (ilo * Ct_ir.word))
      (base + (ihi * Ct_ir.word))

let widen_changed cur prev =
  Array.iteri
    (fun i v ->
      if v <> prev.regs.(i) then
        cur.regs.(i) <- top ~sec:(v.sec || prev.regs.(i).sec))
    cur.regs

let max_fix_iters = 64

let rec exec env st ctx (s : Ct_ir.astmt) =
  env.fuel <- env.fuel - 1;
  match s with
  | ASet (r, e) -> st.regs.(r) <- eval env st ctx e
  | ALoad (r, name, i) ->
      data_access env st ctx name (eval env st ctx i);
      (* Array contents are not modelled; the dynamic semantics returns
         0 for every load. *)
      st.regs.(r) <- const 0
  | AStore (name, i, v) ->
      ignore (eval env st ctx v);
      data_access env st ctx name (eval env st ctx i)
  | AIf (site, c, t, e) -> (
      let cv = eval env st ctx c in
      match truth cv with
      | Some b ->
          branch_event env st ctx site ~undecided_secret:false;
          List.iter (exec env st ctx) (if b then t else e)
      | None ->
          branch_event env st ctx site ~undecided_secret:cv.sec;
          let ctx' =
            { c_definite = false; c_secret = ctx.c_secret || cv.sec }
          in
          let st2 = copy_state st in
          List.iter (exec env st ctx') t;
          List.iter (exec env st2 ctx') e;
          blit_state st (join_state st st2))
  | AWhile (site, c, body) ->
      let rec concrete () =
        env.fuel <- env.fuel - 1;
        let cv = eval env st ctx c in
        match truth cv with
        | Some false -> branch_event env st ctx site ~undecided_secret:false
        | Some true when env.fuel > 0 ->
            branch_event env st ctx site ~undecided_secret:false;
            List.iter (exec env st ctx) body;
            concrete ()
        | d ->
            let undec = d = None && cv.sec in
            abstract { c_definite = false; c_secret = ctx.c_secret || undec }
      and abstract ctx' =
        (* Join/widen fixpoint.  Touches are a function of (regs, ctx),
           so stability of regs+must implies the accumulators have
           stopped growing too. *)
        let iters = ref 0 and stable = ref false in
        while not !stable do
          incr iters;
          let prev = copy_state st in
          let cv = eval env st ctx' c in
          branch_event env st ctx' site
            ~undecided_secret:(truth cv = None && cv.sec);
          (match truth cv with
          | Some false -> ()
          | _ -> List.iter (exec env st ctx') body);
          blit_state st (join_state prev st);
          if equal_state st prev then stable := true
          else if !iters >= max_fix_iters then begin
            (* Backstop: top every register, drop all must facts, take
               one final pass to record the resulting footprint. *)
            Array.iteri
              (fun i v -> st.regs.(i) <- top ~sec:v.sec)
              st.regs;
            Array.iter
              (fun row ->
                Array.iteri (fun j _ -> row.(j) <- Iset.empty) row)
              st.must;
            let cv = eval env st ctx' c in
            branch_event env st ctx' site
              ~undecided_secret:(truth cv = None && cv.sec);
            List.iter (exec env st ctx') body;
            stable := true
          end
          else if !iters >= 3 then widen_changed st prev
        done
      in
      concrete ()

(* ------------------------------------------------------------------ *)
(* Entry point and summary                                             *)

type summary = {
  sm_l1d : int;
  sm_l1i : int;
  sm_tlb : int;
  sm_bp : int;
  sm_llc : int;
  sm_secret_sites : int list;
}

let struct_bits a must_rows =
  let bits = ref 0 in
  Array.iteri
    (fun set slot ->
      let leak = Iset.cardinal (Iset.diff slot.sx must_rows.(set)) in
      bits := !bits + min leak a.st_ways)
    a.st_slots;
  !bits

let fuel_budget = 200_000

(* The abstract machine structures for a platform, shared between the
   Ct_ir analysis below and the kernel-trace back-end ({!cover_trace}):
   one constructor, so the two entry points cannot disagree about
   geometry or granularity. *)
let machine_structs (plat : Tp_hw.Platform.t) =
  let line_shift = Tp_hw.Defs.log2 plat.line in
  let page_shift = Tp_hw.Defs.page_bits in
  let cache_struct name (g : Tp_hw.Cache.geometry) =
    make_struct name ~sets:(Tp_hw.Cache.sets g) ~ways:g.ways ~shift:line_shift
  in
  let tlb_struct name (g : Tp_hw.Tlb.geometry) =
    make_struct name ~sets:(g.entries / g.ways) ~ways:g.ways ~shift:page_shift
  in
  [
    ("l1d", cache_struct "l1d" plat.l1d);
    ("l1i", cache_struct "l1i" plat.l1i);
    ("dtlb", tlb_struct "dtlb" plat.dtlb);
    ("itlb", tlb_struct "itlb" plat.itlb);
    ("l2tlb", tlb_struct "l2tlb" plat.l2tlb);
  ]
  @ (match plat.l2 with
    | Some g -> [ ("l2", cache_struct "l2" g) ]
    | None -> [])
  @ [ ("llc", cache_struct "llc" plat.llc) ]

let struct_index named name =
  let rec go i = function
    | [] -> assert false
    | (n, _) :: _ when n = name -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 named

let analyse ?arrays_at ?(code_at = Ct_ir.code_base) (plat : Tp_hw.Platform.t)
    (p : Ct_ir.program) ~public =
  Ct_ir.validate p;
  let named = machine_structs plat in
  let structs = Array.of_list (List.map snd named) in
  let index = struct_index named in
  let outer =
    (match plat.l2 with Some _ -> [ index "l2" ] | None -> [])
    @ [ index "llc" ]
  in
  let env =
    {
      structs;
      data = [ index "l1d"; index "dtlb"; index "l2tlb" ] @ outer;
      code = [ index "l1i"; index "itlb"; index "l2tlb" ] @ outer;
      arrays =
        List.map
          (fun (n, b, l) -> (n, (b, l)))
          (Ct_ir.array_layout ?arrays_at p);
      code_at;
      bp_sites = Iset.empty;
      fuel = fuel_budget;
    }
  in
  let st =
    {
      regs = Array.make (max 1 (Ct_ir.n_regs p)) (const 0);
      must = Array.map (fun a -> Array.make a.st_sets Iset.empty) structs;
    }
  in
  List.iter
    (fun (r, _, taint) ->
      st.regs.(r) <-
        (match (taint : Ct_ir.taint) with
        | Secret -> top ~sec:true
        | Public -> (
            match List.assoc_opt r public with
            | Some v -> const v
            | None -> top ~sec:false)))
    p.p_params;
  let ctx = { c_definite = true; c_secret = false } in
  List.iter (exec env st ctx) (Ct_ir.annotate p.p_body);
  let bits name = struct_bits env.structs.(index name) st.must.(index name) in
  {
    sm_l1d = bits "l1d";
    sm_l1i = bits "l1i";
    sm_tlb = bits "dtlb" + bits "itlb" + bits "l2tlb";
    sm_bp = 2 * Iset.cardinal env.bp_sites;
    sm_llc =
      (match plat.l2 with Some _ -> bits "l2" | None -> 0) + bits "llc";
    sm_secret_sites = Iset.elements env.bp_sites;
  }

(* ------------------------------------------------------------------ *)
(* Kernel-trace back-end (the engine behind Tp_analysis.Kcert)         *)

(* The kernel certifier lifts Domain_switch / Clone paths into flat
   access traces.  Driving them through the same [touch] and the same
   [machine_structs] as the Ct_ir analysis gives the must-coverage a
   single soundness argument: a fixed access pins its granule in every
   execution (a must fact); a variable access ([ka_fixed = false], an
   allocation- or schedule-dependent address) contributes may-residency
   only — it can neither earn coverage nor destroy a must fact, the
   standard under-approximation (joins intersect must). *)

type kaccess = {
  ka_vaddr : int;
  ka_bytes : int;
  ka_fetch : bool;  (* instruction side *)
  ka_fixed : bool;  (* same address in every execution of the path *)
}

type kcoverage = {
  kc_l1d : int;
  kc_l1i : int;
  kc_dtlb : int;
  kc_itlb : int;
  kc_l2tlb : int;
  kc_l2 : int;  (* 0 when the platform has no private L2 *)
  kc_llc : int;
}

let cover_trace (plat : Tp_hw.Platform.t) (accs : kaccess list) =
  let named = machine_structs plat in
  let structs = Array.of_list (List.map snd named) in
  let index = struct_index named in
  let outer =
    (match plat.l2 with Some _ -> [ index "l2" ] | None -> [])
    @ [ index "llc" ]
  in
  let data = [ index "l1d"; index "dtlb"; index "l2tlb" ] @ outer in
  let code = [ index "l1i"; index "itlb"; index "l2tlb" ] @ outer in
  let env =
    { structs; data; code; arrays = []; code_at = 0; bp_sites = Iset.empty;
      fuel = 0 }
  in
  let st =
    {
      regs = [||];
      must = Array.map (fun a -> Array.make a.st_sets Iset.empty) structs;
    }
  in
  let definite = { c_definite = true; c_secret = false } in
  let variable = { c_definite = false; c_secret = false } in
  List.iter
    (fun ka ->
      let sis = if ka.ka_fetch then code else data in
      let ahi = ka.ka_vaddr + ka.ka_bytes - 1 in
      if ka.ka_fixed then
        (* Granule by granule: [touch] only records a must fact when the
           range pins a single granule, and every granule of a fixed
           multi-byte access is pinned. *)
        List.iter
          (fun si ->
            let a = env.structs.(si) in
            let gl = ka.ka_vaddr asr a.st_shift
            and gh = ahi asr a.st_shift in
            for g = gl to gh do
              let b = g lsl a.st_shift in
              touch env st si ~ctx:definite ~secidx:false b b
            done)
          sis
      else touch_many env st sis ~ctx:variable ~secidx:false ka.ka_vaddr ahi)
    accs;
  let cover name =
    let i = index name in
    let ways = structs.(i).st_ways in
    Array.fold_left
      (fun acc row -> acc + min (Iset.cardinal row) ways)
      0 st.must.(i)
  in
  {
    kc_l1d = cover "l1d";
    kc_l1i = cover "l1i";
    kc_dtlb = cover "dtlb";
    kc_itlb = cover "itlb";
    kc_l2tlb = cover "l2tlb";
    kc_l2 = (match plat.l2 with Some _ -> cover "l2" | None -> 0);
    kc_llc = cover "llc";
  }

(* BTB must-coverage of the kernel's own deterministic jumps: executing
   a taken jump at a fixed site leaves that (site, target) pair MRU in
   its set whatever the prior state — so k distinct fixed sites in a
   w-way set pin min(k, w) ways, the same set-wise counting as the
   caches, through the model's own index hash. *)
let btb_coverage (g : Tp_hw.Btb.geometry) sites =
  let n_sets = Tp_hw.Btb.geometry_sets g in
  let per_set = Array.make n_sets Iset.empty in
  List.iter
    (fun s ->
      let set = Tp_hw.Btb.set_of_addr g s in
      per_set.(set) <- Iset.add s per_set.(set))
    sites;
  Array.fold_left
    (fun acc ss -> acc + min (Iset.cardinal ss) g.Tp_hw.Btb.ways)
    0 per_set

(* PHT must-coverage of a deterministic conditional-branch trace, via
   an interval abstraction of the 2-bit counters.  Initially every
   counter and the global history register are unknown (victim-trained):
   each entry starts at [0,3].  While fewer than [history_bits]
   outcomes have been shifted in, the gshare index is unknown and each
   update widens every entry to the hull of updated/not-updated (a
   no-op on [0,3]).  Once the history is determined by the trace
   itself, updates land on computed indices and move both interval ends
   with the saturating +/-1.  An entry is covered when its final
   interval decides the prediction — entirely at or above the taken
   threshold, or entirely below — because the attacker observes
   predictions, not raw counter values.  The trace is run-length
   encoded as (site, taken, repeat) triples so multi-thousand-iteration
   copy loops stay cheap to carry around. *)
let pht_coverage (g : Tp_hw.Bhb.geometry) trace =
  let n = g.Tp_hw.Bhb.pht_entries in
  let lo = Array.make n 0 and hi = Array.make n 3 in
  let history = ref 0 and seen = ref 0 in
  let step site taken =
    if !seen >= g.Tp_hw.Bhb.history_bits then begin
      let i = Tp_hw.Bhb.index_of g ~history:!history site in
      if taken then begin
        lo.(i) <- min 3 (lo.(i) + 1);
        hi.(i) <- min 3 (hi.(i) + 1)
      end
      else begin
        lo.(i) <- max 0 (lo.(i) - 1);
        hi.(i) <- max 0 (hi.(i) - 1)
      end
    end
    else
      for i = 0 to n - 1 do
        if taken then hi.(i) <- min 3 (hi.(i) + 1)
        else lo.(i) <- max 0 (lo.(i) - 1)
      done;
    history :=
      ((!history lsl 1) lor (if taken then 1 else 0))
      land ((1 lsl g.Tp_hw.Bhb.history_bits) - 1);
    incr seen
  in
  List.iter (fun (site, taken, count) -> for _ = 1 to count do step site taken done) trace;
  let covered = ref 0 in
  for i = 0 to n - 1 do
    if lo.(i) >= Tp_hw.Bhb.taken_threshold || hi.(i) < Tp_hw.Bhb.taken_threshold
    then incr covered
  done;
  !covered
