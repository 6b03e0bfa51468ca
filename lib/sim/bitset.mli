(** Fixed-capacity mutable bitsets.

    Backed by an array of 63-bit words.  Used for node- and cable-occupancy
    maps over clusters of up to several thousand elements, where set/test/
    popcount must be fast and allocation-free. *)

type t

val create : int -> t
(** [create n] is an empty bitset over the universe [0 .. n-1].
    [n] must be >= 0. *)

val capacity : t -> int
(** The universe size [n]. *)

val mem : t -> int -> bool
(** [mem t i] tests bit [i].  Bounds-checked. *)

val add : t -> int -> unit
(** [add t i] sets bit [i]. *)

val remove : t -> int -> unit
(** [remove t i] clears bit [i]. *)

val set : t -> int -> bool -> unit
(** [set t i b] sets bit [i] to [b]. *)

val cardinal : t -> int
(** Number of set bits.  O(words). *)

val is_empty : t -> bool

val clear : t -> unit
(** Clears every bit. *)

val fill : t -> unit
(** Sets every bit in the universe. *)

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] overwrites [dst]'s members with [src]'s without
    allocating; capacities must match.  The refresh primitive behind
    reusable scratch states. *)

val equal : t -> t -> bool
(** Same capacity and same members. *)

val iter_set : t -> f:(int -> unit) -> unit
(** [iter_set t ~f] applies [f] to every set bit in increasing order.
    Skips empty words and isolates each set bit with word-level
    arithmetic — O(words + set bits) rather than O(universe), which is
    what the hot backfill/fault paths need on mostly-empty maps.
    Nearly-full words switch to a straight bit loop, so dense sets pay
    one cheap test per bit instead of a branchy isolation per set
    bit. *)

val exists_set : t -> f:(int -> bool) -> bool
(** [exists_set t ~f] is true iff [f i] holds for some set bit [i];
    short-circuits on the first hit, visiting bits in increasing
    order. *)

val intersects_array : t -> int array -> bool
(** [intersects_array t arr] is true iff some element of [arr] is a
    member of [t]; short-circuits on the first hit.  Bounds-checked.
    Equivalent to [Array.exists (mem t) arr] without the closure. *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val to_list : t -> int list
(** Set bits in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n xs] is the bitset over [0..n-1] containing [xs]. *)

val of_array : int -> int array -> t
(** [of_array n xs] is the bitset over [0..n-1] containing [xs]. *)

val next_set_from : t -> int -> int option
(** [next_set_from t i] is the smallest set index [>= i], or [None] if
    no bit at or above [i] is set.  A word-walk: empty words are
    skipped with one test each, so scans over sparse sets touch
    O(words) memory rather than O(universe) bits. *)

val rank : t -> int -> int
(** [rank t i] is the number of set bits with index [< i].  [i] is
    clamped to [0 .. n].  O(words up to [i]). *)

val nth_set : t -> int -> int option
(** [nth_set t k] is the [k]-th set bit in increasing order (0-based),
    or [None] if fewer than [k+1] bits are set.  The select dual of
    {!rank}: word-level popcounts skip ahead, then the target word is
    walked. *)

val first_clear_from : t -> int -> int option
(** [first_clear_from t i] is the smallest index [>= i] whose bit is clear,
    or [None] if all of [i .. n-1] are set. *)

val count_range : t -> lo:int -> hi:int -> int
(** [count_range t ~lo ~hi] is the number of set bits with
    [lo <= index < hi]. *)

val inter_cardinal : t -> t -> int
(** Cardinality of the intersection; capacities must match. *)

val disjoint : t -> t -> bool
(** True iff the two sets share no member; capacities must match. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] adds every member of [src] to [dst];
    capacities must match. *)
