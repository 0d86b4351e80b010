(** Physical frame accounting.

    Tracks which frames exist, which are free, and their colours.  The
    kernel reserves a boot region for the initial kernel image and the
    residual shared data; everything else becomes the initial Untyped
    memory handed to the first user process (§2.4). *)

type t

val create : Tp_hw.Platform.t -> t

val n_frames : t -> int

val n_colours : t -> int

val colour_of : t -> int -> int
(** Colour of a frame number. *)

val reserve_boot : t -> frames:int -> int
(** Reserve [frames] contiguous frames from the bottom for the boot
    image; returns the base frame (always 0 on first call).  Can only
    be called before any other allocation. *)

val alloc : t -> ?colours:Colour.set -> unit -> int option
(** Allocate a free frame, optionally restricted to a colour set.
    Frames are handed out lowest-first, which keeps allocation
    deterministic. *)

val alloc_many : t -> ?colours:Colour.set -> int -> int list option
(** All-or-nothing allocation of [n] frames. *)

val alloc_all : t -> int array
(** Allocate every free frame, lowest first, in one pass: what
    [alloc_many] of all free frames returns.  Boot hands the result to
    the root Untyped. *)

val free : t -> int -> unit
(** Return a frame.  Double-free is an assertion failure. *)

val free_frames : t -> int
(** Number of currently free frames. *)

val free_frames_of_colour : t -> int -> int

val frame_addr : int -> int
(** Physical byte address of a frame. *)
