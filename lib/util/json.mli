(** Minimal JSON reader/writer: the dependency cone has no JSON
    library.

    {!escape} is the one string escaper: fixed-shape documents
    ({!Tp_obs.Trace} events, [Tp_analysis.Diag] reports and SARIF, the
    certificates) print straight to strings through it, and
    {!to_string} renders structured values with it.  {!parse} reads
    JSON back for the campaign-service wire protocol, the result store
    and the ledger benchmark.

    The parser accepts standard JSON with the escapes {!escape} emits
    (incl. [\uXXXX]; a surrogate pair decodes to one 4-byte UTF-8
    character) and fails closed: trailing garbage, misspelt or
    truncated [true] / [false] / [null] literals, control bytes below
    0x20 left unescaped inside a string (RFC 8259 §7), a lone
    surrogate escape, and numbers outside RFC 8259 §6 ([+1], [.5],
    [01], [1.]) all raise {!Bad}. *)

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
