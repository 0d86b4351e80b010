(** Branch-free LRU victim choice, shared by {!Cache} and {!Tlb}.

    On a miss, whether a given way is invalid or older than the best
    so far is close to random, so a per-way loop with data-dependent
    branches mispredicts on most misses.  This scan takes no such
    branch: it gives each way an integer key and keeps the minimum with
    arithmetic masks. *)

val lru : int array -> age0:int -> way_bits:int -> mask:int -> int -> int
(** [lru b ~age0 ~way_bits ~mask base]: the victim among the
    [1 lsl way_bits] ways of the set whose first word is [b.(base)].
    Way [w]'s tag is [b.(base + w)] ([-1] = invalid, else [>= 0]) and
    its age [b.(age0 + base + w)] ([>= 0]).  Only the ways whose bit is
    set in [mask] are candidates ([-1] allows every way); at least one
    must be.  Returns [base + w] for the lowest-index invalid allowed
    way [w], else for the allowed way with the lowest age, the lowest
    index among equal ages.  Bounds are not checked. *)
