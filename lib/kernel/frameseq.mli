(** The free frames of an Untyped, in allocation order.

    An immutable window over an [int array]: slices share the array,
    so taking frames from the head and reading the length are O(1),
    and no operation boxes a frame.  Frame numbers choose cache sets,
    so every operation keeps the order an [int list] would: {!split_at}
    takes from the head, {!append} concatenates (a Txn rollback or a
    revoke prepends the returned frames), and {!partition} keeps the
    relative order on both sides. *)

type t

val empty : t

val of_list : int list -> t

val of_array : int array -> t
(** Takes ownership: the array must not be mutated afterwards. *)

val to_list : t -> int list

val length : t -> int

val split_at : int -> t -> t * t
(** [split_at n s] is the first [n] frames and the rest, both sharing
    [s]'s storage.
    @raise Invalid_argument unless [0 <= n <= length s]. *)

val append : t -> t -> t
(** [append a b] is [a]'s frames followed by [b]'s.  O(1) when [a]
    ends where [b] starts in the same storage (undoing a
    {!split_at}), a copy otherwise. *)

val partition : (int -> bool) -> t -> t * t
(** The frames satisfying the predicate and the others, each in their
    original order.  The predicate is called once per frame. *)

val iter : (int -> unit) -> t -> unit

val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a

val exists : (int -> bool) -> t -> bool
