(** Branch history buffer / direction predictor model (gshare).

    A global history register of recent branch outcomes indexes (XORed
    with the branch address) a pattern history table of 2-bit saturating
    counters.  The BHB covert channel of Evtyushkin et al. (reproduced
    in §5.3.2) works because the sender's taken/not-taken pattern trains
    counters that the receiver's conditional branches then alias with,
    changing the receiver's misprediction count. *)

type geometry = {
  history_bits : int;  (** length of the global history register *)
  pht_entries : int;  (** pattern history table size; power of two *)
}

val init_counter : int
(** Counter reset value (weakly not-taken). *)

val taken_threshold : int
(** Counters at or above this predict taken. *)

val index_of : geometry -> history:int -> int -> int
(** The pure gshare index hash
    [(history lxor (addr lsr 2)) land (pht_entries - 1)] — the same
    placement function {!branch} uses, exposed so the certifier can
    fold a lifted branch trace through it. *)

type t

val create : ?name:string -> geometry -> t
(** [name] labels the predictor's performance-counter set. *)

val counters : t -> Tp_obs.Counter.set
(** Predict/mispredict/flush counters (observability only). *)

type result = Predicted | Mispredicted

val branch : t -> addr:int -> taken:bool -> result
(** Predict-then-update a conditional branch at [addr]. *)

val flush : t -> unit
(** Clear history and reset all counters to weakly-not-taken. *)

val parts : t -> Blob.part list
(** Every mutable model word, in snapshot order (see {!Blob.part}). *)
