(* The benchmark's workloads and their end-to-end run.

   The load is one closed-loop client in one process: it submits a job
   to [Tp_serve.Engine.run_job] — the function the daemon calls per
   [submit] — waits for the result, encodes the reply as the daemon
   does, and only then submits the next.  Socket I/O is left out. *)

module P = Tp_serve.Protocol
module E = Tp_serve.Engine
module Store = Tp_store.Store

type t = { name : string; make_job : seed:int -> P.job }

let replayable = [ "l1d"; "l1i"; "tlb"; "btb"; "bhb"; "l2" ]

(* Why each workload was chosen is its [why] in BENCHMARK.json and its
   row in README.md. *)
let all =
  [
    {
      name = "sweep-replay";
      make_job =
        (fun ~seed ->
          P.job ~id:"sweep-replay" ~platforms:[ "haswell" ]
            ~configs:[ "raw"; "protected" ] ~channels:replayable ~trials:2
            ~seed ~samples:150 ());
    };
    {
      name = "sweep-kernel";
      make_job =
        (fun ~seed ->
          P.job ~id:"sweep-kernel" ~platforms:[ "haswell" ]
            ~configs:[ "raw"; "full-flush"; "protected" ]
            ~channels:[ "kernel"; "flush" ] ~trials:3 ~seed ~samples:100 ());
    };
    {
      name = "sweep-wide";
      (* The kernel channel is left out on purpose: on Arm the engine
         slices it at 1 ms, too short for a sample, so every sabre kernel
         cell fails and is retried on every submission (see README.md). *)
      make_job =
        (fun ~seed ->
          P.job ~id:"sweep-wide" ~platforms:[ "haswell"; "sabre" ]
            ~configs:(List.map fst E.config_slugs)
            ~channels:[ "l1d"; "l1i"; "tlb"; "btb"; "bhb"; "flush" ]
            ~trials:1 ~seed ~samples:40 ());
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Enough computed trials that p90 has ten samples beyond it, and
   enough resubmissions for p99. *)
let min_trials = 100
let min_resubmits = 1000

(* After each computed job, its resubmissions run for this share of the
   job's wall, so both kinds of sample span the whole window. *)
let resubmit_share = 0.1

(* ---- correctness -------------------------------------------------- *)

(* Everything a trial answers, in job order.  Keys and code_rev are
   left out: they change with every build while the answers must not. *)
let trial_line (t : P.trial) =
  Printf.sprintf "%s %s %s %d %s %h %h %s %d %d %d %s %s %s" t.P.t_platform
    t.P.t_config t.P.t_channel t.P.t_trial
    (P.status_name t.P.t_status)
    t.P.t_mi_bits t.P.t_m0_bits t.P.t_verdict t.P.t_n t.P.t_cert_bits
    t.P.t_kcert_bits t.P.t_kcert_digest t.P.t_kcert_clone_digest
    t.P.t_kcert_destroy_digest

let result_digest (r : P.job_result) =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map trial_line r.P.r_trials)))

(* What a finished job must satisfy whatever the seed: every trial
   answered, computed or cached as expected.  (A measured MI above its
   certified bound is the engine's drift alert, not a failure: it is
   part of the answer, and of the digest.) *)
let job_problems ~expect_cached (r : P.job_result) =
  let answered, how =
    if expect_cached then (r.P.r_cached, "from the store")
    else (r.P.r_computed, "by computing")
  in
  (if r.P.r_status <> P.Complete then
     [
       Printf.sprintf "%s job %s (%d failed)" r.P.r_id
         (P.status_name r.P.r_status) r.P.r_failed;
     ]
   else [])
  @
  if answered <> r.P.r_total then
    [
      Printf.sprintf "%s job answered %d of %d trials %s" r.P.r_id answered
        r.P.r_total how;
    ]
  else []

(* ---- set-up ------------------------------------------------------- *)

type setup = { job : P.job; rev : string; store_dir : string }

(* What a fresh daemon does before it can answer the workload's first
   job: expand it, derive every cell key — which records the victim op
   streams of each replayable combination — and open a store. *)
let setup w ~seed ~dir =
  let job = w.make_job ~seed in
  let cells =
    match E.cells_of_job job with Ok c -> c | Error e -> failwith e
  in
  let rev = E.code_rev () in
  List.iter (fun c -> ignore (E.cell_key ~code_rev:rev job c)) cells;
  let store_dir = Filename.concat dir "setup-store" in
  Store.close (Store.open_ ~dir:store_dir);
  { job; rev; store_dir }

(* ---- the measured run --------------------------------------------- *)

(* One closed-loop request: run the job, then encode the reply. *)
let submit ~store ~rev ?compute ~jobs job =
  Host.time (fun () ->
      match E.run_job ~store ~code_rev:rev ~jobs ?compute job with
      | Ok r ->
          ignore
            (Sys.opaque_identity
               (Tp_util.Json.to_string (P.result_to_json r)));
          r
      | Error e -> failwith ("job rejected: " ^ e))

let with_store dir f =
  let store = Store.open_ ~dir in
  Fun.protect ~finally:(fun () -> Store.close store) (fun () -> f store)

type measured = {
  trial_s : float array;  (** host seconds per [compute_cell] call *)
  job_s : float array;  (** wall of each computed job, reply included *)
  computed : int;  (** trials computed by those jobs *)
  resubmit_s : float array;  (** latency of each cached resubmission *)
  attempted : int;  (** trials answered, computed or cached *)
  failed : int;
  digest : string;  (** {!result_digest} of the first computed job *)
  problems : string list;
}

let run s ~seconds ~jobs ~dir =
  let problems = ref [] in
  let note p = if not (List.mem p !problems) then problems := p :: !problems in
  let attempted = ref 0 and failed = ref 0 and digest = ref None in
  let check ~expect_cached r =
    attempted := !attempted + r.P.r_total;
    failed := !failed + r.P.r_failed;
    List.iter note (job_problems ~expect_cached r);
    let d = result_digest r in
    match !digest with
    | None -> digest := Some d
    | Some first when first <> d ->
        note
          (Printf.sprintf "result digest %s differs from the first job's %s"
             d first)
    | Some _ -> ()
  in
  (* Untimed warm-up: one short trial of each channel. *)
  let warm =
    {
      s.job with
      P.j_id = "warm-up";
      j_platforms = [ List.hd s.job.P.j_platforms ];
      j_configs = [ List.hd s.job.P.j_configs ];
      j_trials = 1;
      j_samples = min 40 s.job.P.j_samples;
    }
  in
  with_store s.store_dir (fun store ->
      let r, _ = submit ~store ~rev:s.rev ~jobs warm in
      List.iter note (job_problems ~expect_cached:false r));
  let mu = Mutex.create () and trials = ref [] in
  let compute j c =
    let out, dt = Host.time (fun () -> E.compute_cell j c) in
    Mutex.protect mu (fun () -> trials := dt :: !trials);
    out
  in
  let resubmits = ref [] and n_resubmits = ref 0 in
  let resubmit store ~until =
    while not (until ()) do
      let r, dt = submit ~store ~rev:s.rev ~jobs s.job in
      check ~expect_cached:true r;
      resubmits := dt :: !resubmits;
      incr n_resubmits
    done
  in
  (* Rounds of one computed job against a fresh store, then
     resubmissions of it against that store.  A round starts only if it
     should end inside the window, unless the trials are still too few
     for their p90. *)
  let t0 = Host.now () in
  let rec rounds i walls computed =
    let store_dir = Filename.concat dir (Printf.sprintf "job-%d" i) in
    let step =
      with_store store_dir (fun store ->
          let r, wall = submit ~store ~rev:s.rev ~compute ~jobs s.job in
          check ~expect_cached:false r;
          let t = Host.now () in
          resubmit store ~until:(fun () ->
              Host.seconds_since t >= resubmit_share *. wall);
          let walls = wall :: walls and computed = computed + r.P.r_computed in
          let elapsed = Host.seconds_since t0 in
          let round = elapsed /. float (i + 1) in
          if computed >= min_trials && elapsed +. round > float seconds then begin
            (* The last round tops up what the p99 needs. *)
            resubmit store ~until:(fun () -> !n_resubmits >= min_resubmits);
            `Done (walls, computed)
          end
          else `Next (walls, computed))
    in
    Host.rm_rf store_dir;
    match step with
    | `Done result -> result
    | `Next (walls, computed) -> rounds (i + 1) walls computed
  in
  let walls, computed = rounds 0 [] 0 in
  {
    trial_s = Array.of_list !trials;
    job_s = Array.of_list (List.rev walls);
    computed;
    resubmit_s = Array.of_list !resubmits;
    attempted = !attempted;
    failed = !failed;
    digest = Option.value !digest ~default:"";
    problems = List.rev !problems;
  }
