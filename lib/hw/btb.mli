(** Branch target buffer model.

    A set-associative structure keyed by branch instruction address,
    storing the predicted target.  A taken branch whose entry is absent
    (or whose stored target differs) costs a misprediction; executing a
    branch installs/updates its entry.  The receiver of the BTB channel
    (§5.3.2) senses the sender's footprint as extra mispredictions on
    its own probe branches. *)

type geometry = { entries : int; ways : int }

val index_shift : int
(** Branch addresses are indexed at 4-byte granularity. *)

val geometry_sets : geometry -> int
(** Number of sets ([entries / ways]). *)

val set_of_addr : geometry -> int -> int
(** The pure index hash [(addr lsr index_shift) land (sets - 1)] — the
    same placement function {!branch} uses, exposed so the certifier
    can fold a lifted branch trace through it. *)

type t

val create : ?name:string -> geometry -> t
(** [name] labels the BTB's performance-counter set. *)

val counters : t -> Tp_obs.Counter.set
(** Predict/mispredict/flush counters (observability only). *)

type result = Predicted | Mispredicted

val branch : t -> addr:int -> target:int -> result
(** Execute a taken branch at [addr] jumping to [target]. *)

val flush : t -> unit
(** Model of an indirect-branch-control (IBC) style BTB invalidation. *)

val valid_entries : t -> int

val parts : t -> Blob.part list
(** Every mutable model word, in snapshot order (see {!Blob.part}). *)
