let src = Logs.Src.create "tp.kernel" ~doc:"Time-protection kernel events"

module Log = (val Logs.src_log src : Logs.LOG)

let kid ki =
  Printf.sprintf "#%d%s" ki.Types.ki_id
    (if ki.Types.ki_is_initial then "(initial)" else "")

let clone ki ~cost_cycles =
  Log.info (fun m ->
      m "kernel_clone -> image %s (asid %d, %d cycles)" (kid ki)
        ki.Types.ki_asid cost_cycles)

let destroy ki = Log.info (fun m -> m "kernel_destroy %s" (kid ki))

let set_int ki ~irq = Log.info (fun m -> m "kernel_set_int %s irq=%d" (kid ki) irq)

(* Every kernel-crossing switch logs, so the message closure is built
   only when debug output is on. *)
let switch ~core ~from_kernel ~to_kernel ~total =
  if Logs.Src.level src = Some Logs.Debug then
    Log.debug (fun m ->
        m "core %d: switch %s -> %s (%d cycles)" core (kid from_kernel)
          (kid to_kernel) total)

(* Fault-injection events: every armed, injected and recovered fault
   is a kernel-log event so injected runs are auditable. *)

(* When tracing is on, the same events also land in the trace ring as
   instants, so harness chunk boundaries and injected faults are
   visible on the Perfetto timeline alongside the switch spans. *)
let trace_instant ?ts ~name args =
  if Tp_obs.Trace.enabled () then
    Tp_obs.Trace.instant ?ts ~core:0 ~cat:"klog" ~name ~args ()

let fault_injected ~point ~hit =
  Log.info (fun m -> m "fault_injected point=%s hit=%d" point hit);
  trace_instant ~name:"fault_injected"
    [ ("point", Tp_obs.Trace.Str point); ("hit", Tp_obs.Trace.Int hit) ]

let fault_armed ~point ~hit =
  Log.debug (fun m -> m "fault_armed point=%s hit=%d" point hit)

let fault_recovered ~where ~exn_ =
  Log.info (fun m ->
      m "fault_recovered %s: %s" where (Printexc.to_string exn_));
  trace_instant ~name:"fault_recovered"
    [
      ("where", Tp_obs.Trace.Str where);
      ("exn", Tp_obs.Trace.Str (Printexc.to_string exn_));
    ]

let harness_checkpoint ?now ~chunk ~collected () =
  Log.debug (fun m -> m "harness_checkpoint chunk=%d collected=%d" chunk collected);
  trace_instant ?ts:now ~name:"harness_checkpoint"
    [ ("chunk", Tp_obs.Trace.Int chunk); ("collected", Tp_obs.Trace.Int collected) ]

let harness_degraded ?now ~reason ~collected () =
  Log.info (fun m -> m "harness_degraded (%s) collected=%d" reason collected);
  trace_instant ?ts:now ~name:"harness_degraded"
    [
      ("reason", Tp_obs.Trace.Str reason);
      ("collected", Tp_obs.Trace.Int collected);
    ]

let init_fault_logging () =
  Tp_fault.Fault.set_observer
    (Some
       (function
       | Tp_fault.Fault.Ev_armed { point; hit } -> fault_armed ~point ~hit
       | Tp_fault.Fault.Ev_injected { point; hit } -> fault_injected ~point ~hit
       | Tp_fault.Fault.Ev_disarmed { point; fired } ->
           Log.debug (fun m -> m "fault_disarmed point=%s fired=%b" point fired)))
