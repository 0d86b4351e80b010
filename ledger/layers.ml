(* The traced run: where a trial's time goes, layer by layer.

   Each traced cell is answered twice at -j 1 with the Tp_obs counters
   on: once by [Engine.compute_cell] itself, then by a replica that
   calls each layer's public function in the same order and times every
   call from outside.  The replica must reproduce compute_cell's stored
   blob byte for byte — that is what licenses reading its phase times
   as compute_cell's — and the time the phases do not cover is
   reported as [serve.unattributed_ms]. *)

module P = Tp_serve.Protocol
module E = Tp_serve.Engine
module H = Tp_attacks.Harness
module Scenario = Tp_core.Scenario
module Kcert = Tp_analysis.Kcert
module Store = Tp_store.Store

(* ---- copies of Engine internals the replica needs ----------------- *)

(* [Engine.prepare_channel] *)
let prepare (c : E.cell) b =
  let module Cc = Tp_attacks.Cache_channels in
  match c.E.cl_channel with
  | "kernel" ->
      (Tp_attacks.Kernel_chan.prepare b, Tp_attacks.Kernel_chan.symbols)
  | "flush" ->
      ( Tp_attacks.Flush_chan.(prepare Offline) b,
        Tp_attacks.Flush_chan.symbols )
  | slug ->
      let ch =
        match slug with
        | "l1d" -> Cc.l1d
        | "l1i" -> Cc.l1i
        | "tlb" -> Cc.tlb
        | "btb" -> Cc.btb c.E.cl_plat
        | "bhb" -> Cc.bhb
        | "l2" -> Cc.l2
        | _ -> invalid_arg ("unknown channel " ^ slug)
      in
      (ch.Cc.prepare b, ch.Cc.symbols)

(* [Engine.cell_rng] *)
let cell_rng (j : P.job) (c : E.cell) =
  let tag =
    String.concat "\x00"
      [
        "tpsim-cell-rng";
        c.E.cl_platform;
        c.E.cl_config;
        c.E.cl_channel;
        string_of_int j.P.j_seed;
        string_of_int c.E.cl_trial;
      ]
  in
  let d = Digest.string tag in
  Tp_util.Rng.create ~seed:(Int64.to_int (String.get_int64_le d 0))

let verdict_name = function
  | Tp_channel.Leakage.Leak -> "leak"
  | Tp_channel.Leakage.No_evidence -> "no-evidence"
  | Tp_channel.Leakage.Negligible -> "negligible"

(* ---- samples ------------------------------------------------------ *)

type samples = (string, float list) Hashtbl.t

let add (acc : samples) name v =
  let old = Option.value (Hashtbl.find_opt acc name) ~default:[] in
  Hashtbl.replace acc name (v :: old)

let latest (acc : samples) name =
  match Hashtbl.find_opt acc name with Some (v :: _) -> v | _ -> 0.

let ms = 1e3
let us = 1e6

(* [timed acc name ~scale f] runs [f], adding its host time in the
   metric's unit ([scale] per second) to [name]'s samples. *)
let timed acc name ~scale f =
  let v, dt = Host.time f in
  add acc name (dt *. scale);
  v

(* Simulated accesses so far, over every core of the current machine. *)
let accesses () =
  List.fold_left
    (fun n set ->
      if String.ends_with ~suffix:".core" (Tp_obs.Counter.set_name set) then
        let snap = Tp_obs.Counter.snapshot set in
        n + Option.value (List.assoc_opt "accesses" snap) ~default:0
      else n)
    0
    (Tp_obs.Counter.registered ())

(* The victim streams Engine records once per replayable combination
   ([Engine.streams_for]), recorded again here under the clock.  Every
   combination is timed: the kernel and flush senders, which the engine
   never records, poison their recording, so there the time is what the
   pre-pass would cost and the streams go unused. *)
let record acc (j : P.job) (c : E.cell) =
  let streams =
    timed acc "attacks.record_ms" ~scale:ms (fun () ->
        let b = Scenario.boot c.E.cl_kind c.E.cl_plat in
        let (sender, _), symbols = prepare c b in
        H.record_streams b ~sender ~symbols
          ~slice_cycles:(H.default_spec c.E.cl_plat).H.slice_cycles)
  in
  if
    j.P.j_replay
    && List.mem c.E.cl_channel Workload.replayable
    && Array.for_all Tp_hw.Replay.complete streams
  then Some streams
  else None

(* The phases of compute_cell, in order; their sum is what the replica
   attributes. *)
let phases =
  [
    "kernel.boot_ms";
    "attacks.prepare_ms";
    "attacks.collect_ms";
    "channel.leakage_ms";
    "analysis.kcert_ms";
  ]

(* One cell through the replica; returns its stored blob. *)
let replica acc (j : P.job) (c : E.cell) ~streams =
  let b =
    timed acc "kernel.boot_ms" ~scale:ms (fun () ->
        Scenario.boot c.E.cl_kind c.E.cl_plat)
  in
  let (sender, receiver), symbols =
    timed acc "attacks.prepare_ms" ~scale:ms (fun () -> prepare c b)
  in
  let spec =
    {
      (H.default_spec c.E.cl_plat) with
      H.samples = j.P.j_samples;
      symbols;
      budget =
        {
          H.max_cycles = j.P.j_trial_cycle_budget;
          max_wall_s = j.P.j_trial_timeout_s;
        };
      replay = j.P.j_replay;
      replay_seed = streams;
    }
  in
  let rng = cell_rng j c in
  let sys = b.Tp_kernel.Boot.sys in
  let acc0 = accesses () and cyc0 = Tp_kernel.System.now sys ~core:0 in
  let r, collect_s =
    Host.time (fun () -> H.run_pair_result b ~sender ~receiver spec ~rng)
  in
  let n_acc = accesses () - acc0 in
  add acc "attacks.collect_ms" (collect_s *. ms);
  add acc "hw.accesses" (float n_acc);
  add acc "hw.sim_cycles" (float (Tp_kernel.System.now sys ~core:0 - cyc0));
  add acc "hw.ns_per_access" (collect_s *. 1e9 /. float (max 1 n_acc));
  add acc "kernel.switches"
    (float
       (Option.value
          (List.assoc_opt "switches" r.H.switch_counters)
          ~default:0));
  let leak =
    timed acc "channel.leakage_ms" ~scale:ms (fun () ->
        Tp_channel.Leakage.test ~rng r.H.data)
  in
  let cfg = Scenario.config c.E.cl_kind c.E.cl_plat in
  let certify path =
    Kcert.certify ~path c.E.cl_plat ~config_name:c.E.cl_config cfg
  in
  let kswitch, kclone, kdestroy =
    timed acc "analysis.kcert_ms" ~scale:ms (fun () ->
        let s = certify Kcert.Switch in
        let cl = certify Kcert.Clone in
        (s, cl, certify Kcert.Destroy))
  in
  (* Already inside collect (the harness certifies every dataset);
     timed again on its own to show its share. *)
  timed acc "analysis.static_ms" ~scale:ms (fun () ->
      ignore (Tp_analysis.Lint.check_static b);
      ignore (Tp_analysis.Certify.certify_static b));
  P.stored_of_trial
    {
      P.t_platform = c.E.cl_platform;
      t_config = c.E.cl_config;
      t_channel = c.E.cl_channel;
      t_trial = c.E.cl_trial;
      t_key = "";
      t_status = (if r.H.degraded then P.Degraded else P.Complete);
      t_mi_bits = leak.Tp_channel.Leakage.m;
      t_m0_bits = leak.Tp_channel.Leakage.m0;
      t_verdict = verdict_name leak.Tp_channel.Leakage.verdict;
      t_n = Array.length r.H.data.Tp_channel.Mi.input;
      t_cert_bits = Tp_analysis.Certify.total_bits r.H.cert;
      t_kcert_bits = Kcert.total_bits kswitch;
      t_kcert_digest = Kcert.digest kswitch;
      t_kcert_clone_digest = Kcert.digest kclone;
      t_kcert_destroy_digest = Kcert.digest kdestroy;
      t_code_rev = E.code_rev ();
      t_degraded_reason = r.H.degraded_reason;
      t_recovered_faults = r.H.recovered_faults;
      t_checkpoints = r.H.checkpoints;
      t_retries = 0;
      t_cached = false;
    }

(* ---- the traced run ----------------------------------------------- *)

type traced = {
  samples : samples;  (** per-layer samples by metric name *)
  scalars : (string * float) list;  (** ratios and bechamel rows *)
  digest : string;  (** {!Workload.result_digest} of the -j 2 job *)
  attempted : int;
  problems : string list;
}

let median xs = (Dist.summarize (Array.of_list xs)).Dist.median

let run (s : Workload.setup) ~seconds ~dir =
  let acc : samples = Hashtbl.create 64 in
  let problems = ref [] in
  let note p = problems := p :: !problems in
  let job = s.Workload.job in
  Tp_obs.Ctl.set_counters true;
  let t0 = Host.now () in
  (* 1. The workload's job at -j 2: pool utilisation, the -j 2 trial
        time behind par.inflation, and the reply to encode. *)
  let mu = Mutex.create () and trial_s = ref [] in
  let compute j c =
    let out, dt = Host.time (fun () -> E.compute_cell j c) in
    Mutex.protect mu (fun () -> trial_s := dt :: !trial_s);
    out
  in
  let r, wall =
    Workload.with_store (Filename.concat dir "job") (fun store ->
        Workload.submit ~store ~rev:s.Workload.rev ~compute ~jobs:2 job)
  in
  List.iter note (Workload.job_problems ~expect_cached:false r);
  let par_util = List.fold_left ( +. ) 0. !trial_s /. (2. *. wall) in
  for _ = 1 to 30 do
    timed acc "serve.encode_ms" ~scale:ms (fun () ->
        Tp_util.Json.to_string (P.result_to_json r))
    |> ignore
  done;
  (* 2. Bechamel rows. *)
  let micro =
    Workload.with_store (Filename.concat dir "micro") (fun store ->
        Micro.run ~store ())
  in
  (* 3. Traced cells at -j 1: trial 0 of every combination, then
        further trials round-robin while the window lasts. *)
  let combos =
    match E.cells_of_job job with
    | Ok cells -> List.filter (fun c -> c.E.cl_trial = 0) cells
    | Error e -> failwith e
  in
  let streams = Hashtbl.create 16 in
  let attempted = ref r.P.r_total in
  (* As -j 1 pool tasks, like run_job's: same kernel object ids. *)
  let task f = (Tp_par.Pool.run ~jobs:1 1 (fun _ -> f ())).(0) in
  let trace_cell store (c : E.cell) =
    incr attempted;
    let combo = (c.E.cl_platform, c.E.cl_config, c.E.cl_channel) in
    let st =
      match Hashtbl.find_opt streams combo with
      | Some st -> st
      | None ->
          let st = record acc job c in
          Hashtbl.replace streams combo st;
          st
    in
    let reference =
      timed acc "serve.compute_ms" ~scale:ms (fun () ->
          task (fun () -> E.compute_cell job c))
    in
    let blob = task (fun () -> replica acc job c ~streams:st) in
    add acc "serve.unattributed_ms"
      (List.fold_left
         (fun t name -> t -. latest acc name)
         (latest acc "serve.compute_ms")
         phases);
    (match reference with
    | Ok b when b = blob -> ()
    | Ok _ ->
        note
          (Printf.sprintf "replica of %s/%s/%s trial %d differs from \
                           compute_cell"
             c.E.cl_platform c.E.cl_config c.E.cl_channel c.E.cl_trial)
    | Error e -> note ("compute_cell failed: " ^ e));
    let key =
      timed acc "serve.key_us" ~scale:us (fun () ->
          E.cell_key ~code_rev:s.Workload.rev job c)
    in
    timed acc "store.put_ms" ~scale:ms (fun () -> Store.put store ~key blob);
    let found =
      timed acc "store.find_us" ~scale:us (fun () -> Store.find store key)
    in
    match
      timed acc "serve.parse_us" ~scale:us (fun () ->
          P.trial_of_stored ~key (Option.value found ~default:""))
    with
    | Ok _ -> ()
    | Error e -> note ("stored trial unreadable: " ^ e)
  in
  Workload.with_store (Filename.concat dir "traced") (fun store ->
      let rec rounds t =
        List.iter (fun c -> trace_cell store { c with E.cl_trial = t }) combos;
        if Host.seconds_since t0 < float seconds then rounds (t + 1)
      in
      rounds 0);
  Tp_obs.Ctl.set_counters false;
  let replayable =
    Hashtbl.fold (fun _ st n -> if st = None then n else n + 1) streams 0
  in
  {
    samples = acc;
    scalars =
      [
        ( "attacks.replayable_frac",
          float replayable /. float (List.length combos) );
        ("par.util", par_util);
        ( "par.inflation",
          median !trial_s *. ms
          /. median (Hashtbl.find acc "serve.compute_ms") );
      ]
      @ micro;
    digest = Workload.result_digest r;
    attempted = !attempted;
    problems = List.rev !problems;
  }
