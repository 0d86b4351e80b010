(** Empirical calibration of the switch-padding latency.

    §4.3 leaves the padding value to the security policy because "a
    safe value requires a worst-case execution time analysis".  Short
    of formal WCET, a resource manager can calibrate: drive the
    domain switch with adversarial workloads (Table 6's probe,
    {!Exp_table6.costs}, over its receivers less x86's L3 row — every
    prime&probe receiver dirties a different part of the machine),
    record the worst observed unpadded switch latency, and add a 25 %
    safety margin.  The result feeds [Kernel_SetPad].  {!covers} then
    checks the pad against every Table 6 receiver, L3 included. *)

type t = {
  worst_observed_cycles : int;
  pad_cycles : int;  (** worst case plus 25 % *)
  pad_us : float;
  trials : int;
}

val switch_pad : ?trials_per_workload:int -> Tp_hw.Platform.t -> t
(** Calibrate on fresh protected systems, one per workload;
    [trials_per_workload] defaults to 20. *)

val covers :
  t -> Tp_hw.Platform.t -> trials:int -> bool
(** Validation: run every Table 6 receiver, x86's L3 row included, on
    fresh systems and check no unpadded switch exceeds the calibrated
    pad. *)
