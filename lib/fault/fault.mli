(** Fault-injection point registry.

    Kernel operations call {!hit} at each named injection point.  A
    dormant registry costs a couple of loads per crossing; tooling can
    {!trace} an operation to enumerate its points (the "steps" of the
    fail-at-step-N driver) or {!arm} a one-shot fault so that a chosen
    crossing raises a chosen exception.

    The module has no kernel dependencies: injected exceptions are
    supplied by the caller (typically [Tp_kernel.Types.Kernel_error]),
    so the kernel library itself can call {!hit}. *)

type event =
  | Ev_armed of { point : string; hit : int }
  | Ev_injected of { point : string; hit : int }
  | Ev_disarmed of { point : string; fired : bool }

val set_observer : (event -> unit) option -> unit
(** Install an observer for arm/inject/disarm events (e.g. the kernel
    log).  [None] removes it. *)

val register : string -> unit
(** Declare an injection point so {!points} can enumerate it before it
    is ever crossed.  Idempotent. *)

val points : unit -> string list
(** All registered point names, in registration order. *)

val hit : string -> unit
(** Cross an injection point: record it when tracing, raise the armed
    exception when this crossing is the armed one.  Near-free when the
    registry is dormant. *)

val arm : point:string -> ?hit:int -> exn -> unit
(** [arm ~point ~hit exn] makes the [hit]-th (0-based, counted from
    now) crossing of [point] raise [exn], once.  Replaces any
    previously armed fault. *)

val disarm : unit -> unit
(** Remove the armed fault (fired or not). *)

val fired : unit -> bool
(** Has the currently armed fault fired? *)

val trace : (unit -> 'a) -> 'a * (string * int) list
(** [trace f] runs [f] while recording every injection-point crossing;
    returns [f ()]'s result and the ordered [(point, occurrence)]
    list.  Occurrence indices are per-point and 0-based, aligned with
    {!arm}'s [hit] argument (when arming at the same program state
    tracing started in).  Nested traces restore the outer recorder. *)
