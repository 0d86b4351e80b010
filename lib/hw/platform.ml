type arch = X86 | Arm

type t = {
  name : string;
  arch : arch;
  cores : int;
  clock_mhz : int;
  line : int;
  l1d : Cache.geometry;
  l1i : Cache.geometry;
  l2 : Cache.geometry option;
  llc : Cache.geometry;
  itlb : Tlb.geometry;
  dtlb : Tlb.geometry;
  l2tlb : Tlb.geometry;
  btb : Btb.geometry;
  bhb : Bhb.geometry;
  lat_l1 : int;
  lat_l2 : int;
  lat_llc : int;
  dram : Dram.config;
  mispredict_penalty : int;
  tlb_walk : int;
  prefetcher_slots : int;
  prefetcher_degree : int;
  has_l1_flush_instr : bool;
  mem_bytes : int;
  kernel_text : int;
  kernel_stack : int;
  kernel_replicated : int;
  kernel_shared : int;
}

let kib n = n * 1024
let mib n = n * 1024 * 1024

let haswell =
  {
    name = "haswell";
    arch = X86;
    cores = 4;
    clock_mhz = 3400;
    line = 64;
    l1d = { Cache.size = kib 32; ways = 8; line = 64; indexing = Cache.Virtual };
    l1i = { Cache.size = kib 32; ways = 8; line = 64; indexing = Cache.Virtual };
    l2 =
      Some { Cache.size = kib 256; ways = 8; line = 64; indexing = Cache.Physical };
    llc = { Cache.size = mib 8; ways = 16; line = 64; indexing = Cache.Physical };
    itlb = { Tlb.entries = 64; ways = 8 };
    dtlb = { Tlb.entries = 64; ways = 4 };
    l2tlb = { Tlb.entries = 1024; ways = 8 };
    btb = { Btb.entries = 4096; ways = 4 };
    bhb = { Bhb.history_bits = 16; pht_entries = 16384 };
    lat_l1 = 4;
    lat_l2 = 12;
    lat_llc = 42;
    dram = { Dram.banks = 8; row_bits = 13; t_hit = 140; t_miss = 230 };
    mispredict_penalty = 18;
    tlb_walk = 60;
    prefetcher_slots = 64;
    prefetcher_degree = 2;
    has_l1_flush_instr = false;
    mem_bytes = mib 256;
    kernel_text = kib 192;
    kernel_stack = kib 4;
    kernel_replicated = kib 16;
    kernel_shared = 9728 (* ~9.5 KiB: the Section 4.1 shared-data list *);
  }

let sabre =
  {
    name = "sabre";
    arch = Arm;
    cores = 4;
    clock_mhz = 800;
    line = 32;
    l1d = { Cache.size = kib 32; ways = 4; line = 32; indexing = Cache.Virtual };
    l1i = { Cache.size = kib 32; ways = 4; line = 32; indexing = Cache.Virtual };
    l2 = None;
    llc = { Cache.size = mib 1; ways = 16; line = 32; indexing = Cache.Physical };
    itlb = { Tlb.entries = 32; ways = 1 };
    dtlb = { Tlb.entries = 32; ways = 1 };
    l2tlb = { Tlb.entries = 128; ways = 2 };
    btb = { Btb.entries = 512; ways = 2 };
    bhb = { Bhb.history_bits = 8; pht_entries = 4096 };
    lat_l1 = 4;
    lat_l2 = 0 (* no private L2 *);
    lat_llc = 26;
    dram = { Dram.banks = 8; row_bits = 13; t_hit = 60; t_miss = 110 };
    mispredict_penalty = 9;
    tlb_walk = 40;
    prefetcher_slots = 0;
    prefetcher_degree = 0;
    has_l1_flush_instr = true;
    mem_bytes = mib 128;
    kernel_text = kib 96;
    kernel_stack = kib 4;
    kernel_replicated = kib 16;
    kernel_shared = 9728;
  }

(* An Arm v8 platform (Cortex A53-class) the paper did not yet have a
   port for.  §5.4.1 predicts the colour-ready IPC overhead "to be
   significantly reduced on the more recent architecture version"
   because v8 cores have 4-way (not 2-way) L2 TLBs; this preset exists
   to test that prediction.  Geometry follows a typical A53: same-size
   L1s with higher associativity, a 1 MiB 16-way shared L2/LLC, 4-way
   set-associative main TLB, and (as on the A9) no modelled stream
   prefetcher. *)
let armv8 =
  {
    name = "armv8";
    arch = Arm;
    cores = 4;
    clock_mhz = 1200;
    line = 64;
    l1d = { Cache.size = kib 32; ways = 4; line = 64; indexing = Cache.Virtual };
    l1i = { Cache.size = kib 32; ways = 4; line = 64; indexing = Cache.Virtual };
    l2 = None;
    llc = { Cache.size = mib 1; ways = 16; line = 64; indexing = Cache.Physical };
    itlb = { Tlb.entries = 32; ways = 2 };
    dtlb = { Tlb.entries = 32; ways = 2 };
    l2tlb = { Tlb.entries = 512; ways = 4 };
    btb = { Btb.entries = 1024; ways = 2 };
    bhb = { Bhb.history_bits = 12; pht_entries = 8192 };
    lat_l1 = 4;
    lat_l2 = 0;
    lat_llc = 20;
    dram = { Dram.banks = 8; row_bits = 13; t_hit = 70; t_miss = 130 };
    mispredict_penalty = 12;
    tlb_walk = 45;
    prefetcher_slots = 0;
    prefetcher_degree = 0;
    has_l1_flush_instr = true;
    mem_bytes = mib 128;
    kernel_text = kib 96;
    kernel_stack = kib 4;
    kernel_replicated = kib 16;
    kernel_shared = 9728;
  }

let all = [ haswell; sabre; armv8 ]

let colours p =
  match p.l2 with
  | Some g -> Cache.colours g
  | None -> Cache.colours p.llc

let llc_colours p = Cache.colours p.llc

let cycles_to_us p c = float_of_int c /. float_of_int p.clock_mhz

let us_to_cycles p us = int_of_float (us *. float_of_int p.clock_mhz)

let pp ppf p =
  Format.fprintf ppf
    "@[<v>%s (%s, %d cores @ %d MHz)@,L1-D %a@,L1-I %a@,%s@,LLC %a@,%d page \
     colours@]"
    p.name
    (match p.arch with X86 -> "x86" | Arm -> "Arm v7")
    p.cores p.clock_mhz Cache.pp_geometry p.l1d Cache.pp_geometry p.l1i
    (match p.l2 with
    | Some g -> Format.asprintf "L2 %a (private)" Cache.pp_geometry g
    | None -> "no private L2")
    Cache.pp_geometry p.llc (colours p)
