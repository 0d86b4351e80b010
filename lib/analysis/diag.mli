(** Structured diagnostics shared by the analysis passes.

    Every finding carries a stable rule identifier (["TP-..."] for the
    partition linter, ["CT-..."] for the constant-time checker), a
    severity, a human-readable message and optional key/value context.
    Reports render either as text for the terminal or as JSON for CI
    (hand-rolled, same style as {!Tp_obs.Trace} — no JSON library in
    the dependency cone). *)

type severity = Error | Warning | Info

type finding = {
  rule : string;  (** stable rule id, e.g. ["TP-PAD-INSUFFICIENT"] *)
  severity : severity;
  message : string;
  context : (string * string) list;  (** extra key/values, JSON only *)
}

type report = {
  subject : string;  (** what was analysed, e.g. ["lint haswell protected"] *)
  findings : finding list;
}

val error : ?context:(string * string) list -> rule:string -> string -> finding
val warning : ?context:(string * string) list -> rule:string -> string -> finding
val info : ?context:(string * string) list -> rule:string -> string -> finding

val clean : report -> bool
(** No findings of any severity. *)

val count : severity -> report -> int
val rules : report -> string list
(** Distinct rule ids present, sorted. *)

val severity_name : severity -> string
val summary : report -> string
(** ["clean"] or e.g. ["2 errors, 1 warning"]. *)

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> string
(** One JSON object: [{"subject": ..., "clean": ..., "findings": [...]}]. *)

val reports_to_json : report list -> string
(** A JSON array of reports (one element per platform/config pair). *)

val severity_sarif_level : severity -> string
(** SARIF result level: ["error"], ["warning"] or ["note"]. *)

val reports_to_sarif : ?tool_name:string -> report list -> string
(** SARIF 2.1.0 (the shape GitHub code scanning ingests): one run
    whose driver carries the distinct rule ids, one result per
    finding.  Findings are configuration-level, so every result points
    at a synthetic location (README.md, line 1) — SARIF consumers
    require one — with the real subject preserved in the message and
    the [properties] bag. *)
