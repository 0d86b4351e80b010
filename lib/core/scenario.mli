(** The three evaluation scenarios of §5.2 and variants for ablation.

    - [Raw]: the unmitigated baseline;
    - [Full_flush]: maximal architected reset on every domain switch
      (whole hierarchy + predictors, prefetcher disabled);
    - [Protected]: the paper's time protection (coloured userland,
      cloned kernels, on-core flush, shared-data prefetch, IRQ
      partitioning, padded switches).

    [Coloured_only] (coloured userland, shared kernel) is the Figure 3
    "top" configuration; [Protected_no_pad] and
    [Protected_no_prefetcher] are the Table 4 / §5.3.2 ablations. *)

type kind =
  | Raw
  | Full_flush
  | Protected
  | Coloured_only
  | Protected_no_pad
  | Protected_no_prefetcher
  | Cat_llc
      (** way-partition the LLC with Intel CAT instead of page
          colouring (§2.3, CATalyst) — no colouring, no flushing:
          isolates the CAT mechanism's effect on the LLC channels *)

val name : kind -> string

val slugs : (string * kind) list
(** The stable slug of every kind ([raw], [full-flush], [protected],
    [coloured-only], [no-pad], [no-prefetcher], [cat-llc]): tpsim's
    [-c] spelling, the campaign service's config names and the
    certificate artifact names. *)

val slug : kind -> string
(** The kind's entry in {!slugs}. *)

val config : kind -> Tp_hw.Platform.t -> Tp_kernel.Config.t

val boot :
  ?colour_percent:int ->
  ?domains:int ->
  kind ->
  Tp_hw.Platform.t ->
  Tp_kernel.Boot.booted
(** Boot a fresh system in the scenario (2 domains by default). *)

val table3_set : kind list
(** Raw, Full_flush, Protected — the Table 3 columns. *)
