(** Domain-switch flush steps.

    One value per hardware (or kernel-emulated) scrub the switch path
    can perform.  A configuration's switch-flush plan
    ([Tp_kernel.Config.flush_plan]) is an ordered list of these; the
    kernel executes it ({!Machine.flush_step}, plus the kernel-layer
    manual L1 flush), {!Bounds.flush_step_bound} bounds each step, and
    the analyses read which channels it closes from the same list. *)

type step =
  | L1_hw  (** architected L1 I+D flush *)
  | L1_manual
      (** x86 "manual" L1 flush: a load/jump sweep over per-image
          buffers (§4.3) — a kernel-layer step, not a machine one *)
  | L2  (** private L2 flush (a no-op on platforms without one) *)
  | Llc  (** shared-LLC write-back + invalidate ([wbinvd]) *)
  | Tlb  (** full TLB invalidation *)
  | Bp  (** BTB + BHB reset *)
  | Dram_close
      (** hypothetical precharge-all of the DRAM banks (no real ISA
          offers this) *)
