(** Minimal JSON reader/writer.

    The dependency cone deliberately has no JSON library; every layer
    that needs machine-readable output hand-rolls its printing
    ({!Tp_obs.Trace}, [Tp_analysis.Diag]).  This module centralises
    the {e parsing} side (the campaign-service wire protocol, the
    result store and the ledger benchmark all read JSON back) plus a
    printer for building documents from structured values.

    The parser accepts standard JSON with the escapes this repo's
    printers emit (incl. [\uXXXX]); it rejects trailing garbage and
    misspelt or truncated [true] / [false] / [null] literals. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

val parse : string -> t
(** @raise Bad on malformed input (message includes the byte offset). *)

val parse_opt : string -> t option

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects too. *)

val str : t -> string option
val num : t -> float option
val int_ : t -> int option
(** A [Num] that is finite, integral and within the [int] range;
    [None] for anything else (so [2.5], [1e19] and non-numbers are
    rejected, never rounded or wrapped). *)

val bool_ : t -> bool option
val arr : t -> t list option

val escape : string -> string
(** Escape a string body for embedding between double quotes:
    quotes, backslashes and control characters (as [\u00XX]). *)

val to_string : t -> string
(** Compact (single-line) rendering.  Integral [Num]s print without a
    fractional part; other floats round-trip ([%.17g]). *)
