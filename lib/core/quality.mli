(** Experiment sizing: every driver takes a [Quality.t] so [tpsim]
    can run a minutes-scale [Quick] pass by default and a heavier
    [Full] pass on demand.  Quick sizes are chosen so every channel
    verdict is already stable. *)

type t = Quick | Full

val samples : t -> int
(** Channel-measurement samples per configuration. *)

val irq_samples : t -> int
(** The 10 ms-slice interrupt channel is costlier per sample. *)

val workload_accesses : t -> int
(** Memory accesses per SPLASH-2-signature benchmark run. *)

val repeats : t -> int
(** Repetitions for latency microbenchmarks. *)

val degraded_tag : bool -> string
(** [" [degraded]"] when a measurement returned partial data (cycle or
    wall-clock budget hit, or recovered kernel faults), [""]
    otherwise; appended to verdict cells by {!Report}. *)

val of_string : string -> t option
