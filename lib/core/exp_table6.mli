(** Table 6: absolute domain-switch cost (no padding) when switching
    away from a domain that just ran one of the §5.3.2 attack
    receivers (idle, L1-D, L1-I, L2, L3 prime&probe), under raw, full
    flush and protected modes.  The paper's point: the defended
    systems' latency is workload-independent even before padding, and
    protected is an order of magnitude cheaper than the full flush. *)

type row = { mode : string; us_by_workload : (string * float) list }

type result = { platform : string; workloads : string list; rows : row list }

type workload =
  | Idle
  | Write of int  (** write-sweep this many bytes, line by line *)
  | Fetch of int  (** fetch-sweep this many bytes of code *)

val workloads : Tp_hw.Platform.t -> (string * workload) list
(** The receivers, in column order, with their column names: idle,
    L1-D, L1-I, the private L2 where there is one, and half the LLC
    (["L3"] on x86, ["L2(LLC)"] on Arm). *)

val costs : Scenario.kind -> Tp_hw.Platform.t -> workload -> reps:int -> int array
(** The probe: on a freshly booted [kind] system, [reps] times run the
    workload for a 1 ms slice ({!Tp_kernel.Exec.run_thread}), then
    switch to an idle domain; each element is that switch's
    [Domain_switch.total], in cycles. *)

val run : Quality.t -> Tp_hw.Platform.t -> result
(** Every mode × receiver cell: the median of {!costs} over
    [Quality.repeats] runs, in microseconds. *)
