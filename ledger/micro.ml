(* Bechamel per-call estimates of single layers: one call of a layer's
   public entry point, under the names BENCHMARK.json declares.  The
   simulator's access-path, snapshot and replay primitives are
   bench/micro.ml's rows, not repeated here. *)

open Bechamel
module Scenario = Tp_core.Scenario

let p = Tp_hw.Platform.haswell

(* Protected switches between idle threads of the two domains. *)
let switch_row () =
  let open Tp_kernel in
  let b = Scenario.boot Scenario.Protected p in
  let sys = b.Boot.sys in
  let spawn d =
    let t = Boot.spawn b b.Boot.domains.(d) (fun _ -> ()) in
    Sched.remove (System.sched sys) ~core:0 t;
    t
  in
  let t0 = spawn 0 and t1 = spawn 1 in
  let flip = ref false in
  Test.make ~name:"kernel.switch_us"
    (Staged.stage (fun () ->
         flip := not !flip;
         Domain_switch.switch sys ~core:0 ~to_:(if !flip then t1 else t0)))

(* A fixed 300-sample, 4-symbol dataset with a small real signal. *)
let leakage_row () =
  let rng = Tp_util.Rng.create ~seed:7 in
  let input = Array.init 300 (fun _ -> Tp_util.Rng.int rng 4) in
  let noise () = Tp_util.Rng.gaussian rng ~mu:0. ~sigma:2. in
  let output = Array.map (fun s -> float s +. noise ()) input in
  let data = { Tp_channel.Mi.input; output } in
  Test.make ~name:"channel.leakage_op_ms"
    (Staged.stage (fun () ->
         Tp_channel.Leakage.test ~rng:(Tp_util.Rng.create ~seed:11) data))

let kcert_row () =
  let cfg = Scenario.config Scenario.Protected p in
  Test.make ~name:"analysis.kcert_op_ms"
    (Staged.stage (fun () ->
         List.map
           (fun path ->
             Tp_analysis.Kcert.certify ~path p ~config_name:"protected" cfg)
           Tp_analysis.Kcert.[ Switch; Clone; Destroy ]))

let store_rows store =
  let module Store = Tp_store.Store in
  let blob = String.make 700 'x' and n = ref 0 in
  let key i = Store.key ~code_rev:"ledger" ~parts:[ string_of_int i ] in
  Store.put store ~key:(key 0) blob;
  [
    Test.make ~name:"store.put_op_ms"
      (Staged.stage (fun () ->
           incr n;
           Store.put store ~key:(key !n) blob));
    Test.make ~name:"store.find_op_us"
      (Staged.stage (fun () -> Store.find store (key 0)));
  ]

let rows ~store =
  [
    switch_row ();
    Test.make ~name:"kernel.boot_op_ms"
      (Staged.stage (fun () -> Scenario.boot Scenario.Protected p));
    leakage_row ();
    kcert_row ();
  ]
  @ store_rows store

(* Host ns per call -> the unit the row's name ends with. *)
let per_call name = if String.ends_with ~suffix:"_us" name then 1e3 else 1e6

(* [(name, value)] for every row: the OLS estimate of host time per
   call, in the row's unit. *)
let run ?(quota = 0.25) ~store () =
  let cfg =
    Benchmark.cfg ~limit:500 ~stabilize:false ~quota:(Time.second quota) ()
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let name = Test.Elt.name elt in
          let raw = Benchmark.run cfg [ clock ] elt in
          match Analyze.OLS.estimates (Analyze.one ols clock raw) with
          | Some (ns :: _) -> (name, ns /. per_call name)
          | _ -> failwith ("bechamel produced no estimate for " ^ name))
        (Test.elements test))
    (rows ~store)
