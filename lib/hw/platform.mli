(** Hardware platform descriptions.

    The two presets encode Table 1 of the paper: the Haswell x86
    evaluation machine (Core i7-4770) and the Arm v7 Sabre (i.MX6Q,
    Cortex A9), including cache/TLB/predictor geometries, latency
    parameters, and the architectural differences that drive the
    evaluation:

    - x86 has a private per-core L2 and a shared L3 (LLC); the OS
      colours by the L2 (8 colours), which implicitly colours the LLC;
    - Arm has no L3: the 1 MiB L2 is the shared last-level cache
      (16 colours);
    - x86 has no selective L1 flush instruction ([has_l1_flush_instr =
      false]), forcing the paper's "manual" flush via cache-sized
      buffers; Arm has DCCISW/ICIALLU;
    - only the x86 core has the aggressive, unflushable stream
      prefetcher responsible for the residual L2 channel. *)

type arch = X86 | Arm

type t = {
  name : string;
  arch : arch;
  cores : int;
  clock_mhz : int;
  line : int;  (** cache line size in bytes *)
  l1d : Cache.geometry;
  l1i : Cache.geometry;
  l2 : Cache.geometry option;  (** private per-core L2 (x86); Arm: none *)
  llc : Cache.geometry;  (** shared last-level cache (x86 L3 / Arm L2) *)
  itlb : Tlb.geometry;
  dtlb : Tlb.geometry;
  l2tlb : Tlb.geometry;
  btb : Btb.geometry;
  bhb : Bhb.geometry;
  lat_l1 : int;  (** L1 hit latency, cycles *)
  lat_l2 : int;  (** private L2 hit latency (x86) *)
  lat_llc : int;  (** shared LLC hit latency *)
  dram : Dram.config;
  mispredict_penalty : int;
  tlb_walk : int;  (** page-table walk cost on L2-TLB miss, cycles *)
  prefetcher_slots : int;  (** 0 = no stream prefetcher modelled *)
  prefetcher_degree : int;
  has_l1_flush_instr : bool;
  mem_bytes : int;  (** physical memory size *)
  kernel_text : int;  (** kernel text+rodata bytes (cloned per image) *)
  kernel_stack : int;  (** kernel stack bytes (cloned) *)
  kernel_replicated : int;  (** replicated global data bytes (cloned) *)
  kernel_shared : int;  (** residual shared static data (§4.1 list) *)
}

val haswell : t
(** Core i7-4770, 4 cores, 3.4 GHz (Table 1, left column). *)

val sabre : t
(** i.MX6Q Sabre, Cortex A9, 4 cores, 0.8 GHz (Table 1, right column). *)

val armv8 : t
(** A Cortex A53-class Arm v8 platform the paper did not yet support
    (§5.4.1).  Its 4-way L2 TLB exists to test the paper's prediction
    that the colour-ready IPC overhead shrinks on v8. *)

val all : t list

val colours : t -> int
(** Number of page colours available for partitioning: determined by
    the smallest physically-indexed cache the OS must colour (x86: the
    private L2, which implicitly colours the LLC; Arm: the shared L2). *)

val llc_colours : t -> int
(** Colours of the last-level cache alone (relevant for the paper's
    discussion of colouring only the LLC in a cloud scenario). *)

val cycles_to_us : t -> int -> float
(** Convert core cycles to microseconds at the platform clock. *)

val us_to_cycles : t -> float -> int

val pp : Format.formatter -> t -> unit
