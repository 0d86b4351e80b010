(** Flat integer state blobs, and the parts of a machine's state.

    A blob is the storage format of {!Machine.snapshot}s and {!Replay}
    streams: one contiguous [Bigarray.Array1] of native ints.

    Every mutable model word of a component lives in a {!part}: the
    component's own word array (which its hot paths read and write in
    place), a float array (only {!Interconnect}'s load estimators) or
    its performance-counter set.  {!Machine} lists the parts of all its
    components in one fixed order, and that order is the snapshot
    format: a snapshot is the concatenation of every part's words, and
    the state digests the replay and boot-pinning gates compare are
    taken over it.  Reordering parts, or the words inside a component's
    array, changes every digest.

    Live word arrays are ordinary [int array]s, not blobs: OCaml charges
    off-heap [Bigarray] memory to the major GC at a higher rate than
    heap blocks, so a machine whose live state were blobs would make
    every boot drive extra major collections. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Uninitialised. *)

val length : t -> int

type part =
  | Words of int array
  | Floats of float array
      (** each float stored as two words: the low and high 32 bits of
          its IEEE-754 bit pattern (a native int is 63-bit) *)
  | Counters of Tp_obs.Counter.set
      (** counter values are machine state for snapshot purposes:
          restoring must roll them back too, or a replayed trial's
          counter-derived metrics would diverge from a fresh run's *)

val part_words : part -> int
(** Size of the part in blob words. *)

val save_part : t -> int -> part -> int
(** [save_part b off p] writes [p] at [off] and returns the offset past
    it. *)

val load_part : t -> int -> part -> int
(** [load_part b off p] overwrites [p] from the words at [off] (as
    {!save_part} wrote them) and returns the offset past them. *)

val digest : t -> string
(** MD5 (hex) over the blob's words in little-endian byte order. *)

val digest_sub : t -> len:int -> string
(** Digest of the first [len] words only (replay streams are grown
    capacity-doubling, so the live prefix is what identifies them). *)
