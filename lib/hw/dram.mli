(** DRAM access-latency model with open-row buffers.

    Each bank keeps one open row; an access to the open row is cheaper
    than one that requires precharge + activate.  Row-buffer state is a
    microarchitectural channel in its own right (the paper's taxonomy,
    §2.2 item 1 lists DRAM row buffers); modelling it keeps memory
    latency non-constant in a realistic, testable way. *)

type config = {
  banks : int;  (** power of two *)
  row_bits : int;  (** log2 of the row size in bytes *)
  t_hit : int;  (** cycles for an open-row access *)
  t_miss : int;  (** cycles for a row-buffer miss (precharge+activate) *)
}

type t

val create : ?name:string -> config -> t
(** [name] labels the performance-counter set. *)

val counters : t -> Tp_obs.Counter.set
(** Row hit/empty/conflict/precharge counters (observability only). *)

val bank_of : config -> paddr:int -> int
(** Bank an address maps to.  The selector hashes many address bits
    (as real memory controllers do), so page colouring cannot
    partition the banks. *)

val access : t -> paddr:int -> int
(** Latency in cycles; updates the bank's open row. *)

val close_all : t -> unit
(** Precharge all banks (e.g. after self-refresh); all rows closed. *)

val parts : t -> Blob.part list
(** Every mutable model word, in snapshot order (see {!Blob.part}). *)
