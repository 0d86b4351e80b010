(** The seL4 retype operation: carving kernel objects out of Untyped
    memory (§2.4).

    The kernel never allocates: every object is backed by frames taken
    from an Untyped supplied by userland, so colouring user memory
    colours all dynamic kernel data (Figure 2).  Retyped objects get
    capabilities derived from the Untyped's capability, so revoking the
    Untyped reclaims everything carved from it. *)

val untyped_of_frames : n_colours:int -> Frameseq.t -> Types.cap
(** Wrap raw frames as a root Untyped capability (boot-time only).
    [n_colours] is the platform's colour count; child Untypeds inherit
    it, so {!split_colours} colours frames the way the caches do. *)

val split_colours : Types.cap -> Colour.set -> Types.cap
(** Carve a child Untyped containing exactly the parent's free frames
    of the given colours (the initial process's "separate all free
    memory into coloured pools" step, §3.3).
    @raise Types.Kernel_error [Insufficient_colours] if the parent has
    no frame of a requested colour. *)

val split_frames : Types.cap -> frames:int -> Types.cap
(** Carve a child Untyped with the first [frames] free frames. *)

(** Each retype takes frames from the Untyped behind the capability and
    returns a derived capability to the new object.
    @raise Types.Kernel_error [Invalid_capability] on a stale cap,
    [Wrong_object_type] if it is not an Untyped,
    [Insufficient_untyped] when out of frames. *)

val retype_tcb : Types.cap -> core:int -> prio:int -> Types.cap
val retype_frame : Types.cap -> Types.cap
val retype_endpoint : Types.cap -> Types.cap
val retype_notification : Types.cap -> Types.cap
val retype_vspace : Types.cap -> asid:int -> Types.cap

val retype_sched_context : Types.cap -> budget:int -> period:int -> Types.cap
(** A scheduling-context object (Lyons et al. 2018): caps a bound
    thread to [budget] execution cycles per [period].  Requires
    [0 < budget <= period]. *)

val retype_kernel_memory : Types.cap -> platform:Tp_hw.Platform.t -> Types.cap
(** An (unpopulated) Kernel_Memory object big enough for one image. *)

val take_frames : Types.cap -> int -> int list
(** Take [n] raw frames out of the Untyped (models a batch of Frame
    retypes for user buffers without minting one capability per page).
    @raise Types.Kernel_error [Insufficient_untyped] *)

val take_frames_where : Types.cap -> pred:(int -> bool) -> int -> int list
(** Like {!take_frames} but only frames satisfying [pred] — e.g. an
    attacker hand-picking frames by LLC set group to build an eviction
    set, which is only possible when its pool spans those frames.
    @raise Types.Kernel_error [Insufficient_untyped] *)

val untyped_free_frames : Types.cap -> int
(** Free frames remaining behind an Untyped capability. *)

val the_untyped : Types.cap -> Types.untyped
(** @raise Types.Kernel_error [Wrong_object_type] *)
