(* Each way gets a key: its age if valid (a valid line's age is >= 1),
   -1 if invalid, shifted left by [way_bits] with the way index in the
   low bits, plus [excluded] if [mask] excludes the way.  No two keys
   tie, so the smallest is the victim, lowest index first among equal
   ages.  Ages count accesses, so they stay far below
   [excluded lsr way_bits]; every key lies in [[-top, top]], so the
   difference of two cannot overflow. *)
let excluded = 1 lsl 60
let top = 1 lsl 61

let[@inline] key b age0 way_bits mask base w =
  let i = base + w in
  let tag = Array.unsafe_get b i and age = Array.unsafe_get b (age0 + i) in
  (* [tag asr (int_size - 1)] is all ones for an invalid way (tag -1)
     and 0 for a valid one. *)
  (((age lor (tag asr (Sys.int_size - 1))) lsl way_bits) lor w)
  + (excluded land (((mask lsr w) land 1) - 1))

(* [min m k] with arithmetic masks: [d asr (int_size - 1)] is all ones
   exactly when [k < m]. *)
let[@inline] min_key m k =
  let d = k - m in
  m + (d land (d asr (Sys.int_size - 1)))

(* The smaller key of ways [w] and [w + 1]. *)
let[@inline] pair b age0 way_bits mask base w =
  min_key (key b age0 way_bits mask base w) (key b age0 way_bits mask base (w + 1))

let lru b ~age0 ~way_bits ~mask base =
  let ways = 1 lsl way_bits in
  let m =
    match ways with
    | 1 -> 0
    | 2 -> pair b age0 way_bits mask base 0
    | _ ->
        (* Four ways a step: [ways] is a power of two >= 4 here. *)
        let m = ref top and w = ref 0 in
        while !w < ways do
          let k01 = pair b age0 way_bits mask base !w in
          let k23 = pair b age0 way_bits mask base (!w + 2) in
          m := min_key !m (min_key k01 k23);
          w := !w + 4
        done;
        !m
  in
  base + (m land (ways - 1))
