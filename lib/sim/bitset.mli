(** Fixed-capacity mutable bitsets.

    Backed by an array of 63-bit words.  Used for node- and cable-occupancy
    maps over clusters of up to several thousand elements, where set/test/
    popcount must be fast and allocation-free. *)

type t

val create : int -> t
(** [create n] is an empty bitset over the universe [0 .. n-1].
    [n] must be >= 0. *)

val mem : t -> int -> bool
(** [mem t i] tests bit [i].  Bounds-checked. *)

val add : t -> int -> unit
(** [add t i] sets bit [i]. *)

val remove : t -> int -> unit
(** [remove t i] clears bit [i]. *)

val fill : t -> unit
(** Sets every bit in the universe. *)

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] overwrites [dst]'s members with [src]'s without
    allocating; capacities must match.  The refresh primitive behind
    reusable scratch states. *)

val intersects_array : t -> int array -> bool
(** [intersects_array t arr] is true iff some element of [arr] is a
    member of [t]; short-circuits on the first hit.  Bounds-checked.
    Equivalent to [Array.exists (mem t) arr] without the closure. *)

val of_array : int -> int array -> t
(** [of_array n xs] is the bitset over [0..n-1] containing [xs]. *)

val next_set_from : t -> int -> int option
(** [next_set_from t i] is the smallest set index [>= i], or [None] if
    no bit at or above [i] is set.  A word-walk: empty words are
    skipped with one test each, so scans over sparse sets touch
    O(words) memory rather than O(universe) bits. *)
