(* Flat integer state blobs for machine snapshots and replay streams,
   and the parts a machine's live state is made of.

   A snapshot is the concatenation of a machine's parts: word arrays
   verbatim, floats as two 32-bit halves of their IEEE-754 bit pattern
   (an OCaml int is 63-bit, so a full [Int64] does not fit in one
   word), counter sets as their values in declaration order. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let length (b : t) = Bigarray.Array1.dim b

type part =
  | Words of int array
  | Floats of float array
  | Counters of Tp_obs.Counter.set

let float_words = 2

let part_words = function
  | Words w -> Array.length w
  | Floats a -> float_words * Array.length a
  | Counters st -> Tp_obs.Counter.length st

(* In bounds by construction: callers size the blob with the matching
   [part_words] sum before saving, and load walks the same layout. *)

let save_ints (b : t) off a =
  for i = 0 to Array.length a - 1 do
    Bigarray.Array1.unsafe_set b (off + i) (Array.unsafe_get a i)
  done;
  off + Array.length a

let load_ints (b : t) off a =
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set a i (Bigarray.Array1.unsafe_get b (off + i))
  done;
  off + Array.length a

let save_part b off = function
  | Words w -> save_ints b off w
  | Floats a ->
      Array.iteri
        (fun i f ->
          let bits = Int64.bits_of_float f in
          let o = off + (float_words * i) in
          b.{o} <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
          b.{o + 1} <- Int64.to_int (Int64.shift_right_logical bits 32))
        a;
      off + (float_words * Array.length a)
  | Counters st -> save_ints b off (Tp_obs.Counter.values st)

let load_part b off = function
  | Words w -> load_ints b off w
  | Floats a ->
      for i = 0 to Array.length a - 1 do
        let o = off + (float_words * i) in
        let lo = Int64.logand (Int64.of_int b.{o}) 0xFFFFFFFFL in
        let hi = Int64.shift_left (Int64.of_int b.{o + 1}) 32 in
        a.(i) <- Int64.float_of_bits (Int64.logor hi lo)
      done;
      off + (float_words * Array.length a)
  | Counters st ->
      let vs = Array.make (Tp_obs.Counter.length st) 0 in
      let off = load_ints b off vs in
      Tp_obs.Counter.set_values st vs;
      off

let digest_sub (b : t) ~len =
  let bytes = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le bytes (8 * i) (Int64.of_int b.{i})
  done;
  Digest.to_hex (Digest.bytes bytes)

let digest (b : t) = digest_sub b ~len:(length b)
