(** Translation look-aside buffer model.

    Set-associative over virtual page numbers, with two features the
    generic {!Cache} lacks and the paper's evaluation depends on:

    - entries are tagged with an ASID and a [global] bit.  Global
      entries (the original seL4 kernel maps the kernel window global)
      hit under any ASID and survive {!flush_asid}.  The colour-ready
      kernel cannot use global kernel mappings, which is what causes
      the Arm IPC slowdown in Table 5 (conflict misses in the 2-way
      L2 TLB of the Cortex A9);
    - a full flush ({!flush_all}) models [TLBIALL]/[invpcid]. *)

type geometry = { entries : int; ways : int }

type t

val create : ?name:string -> geometry -> t
(** [name] labels the TLB's performance-counter set. *)

val geometry : t -> geometry

val counters : t -> Tp_obs.Counter.set
(** Hit/miss/flush counters (observability only, never read by the
    model). *)

type result = Hit | Miss

val access : t -> asid:int -> vpn:int -> global:bool -> result
(** Look up [vpn] under [asid]; on miss, install the translation with
    the given [global] flag, evicting the set's LRU entry. *)

val probe : t -> asid:int -> vpn:int -> bool
(** Presence check without allocation or LRU update. *)

val flush_all : t -> unit

val flush_asid : t -> int -> unit
(** Drop all non-global entries belonging to the ASID. *)

val valid_entries : t -> int

val sets : t -> int

val parts : t -> Blob.part list
(** Every mutable model word, in snapshot order (see {!Blob.part}). *)
