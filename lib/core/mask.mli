(** Small-integer bitmask helpers.

    Allocation search state is kept as OCaml-int bitmasks over slot,
    leaf and L2 indices: at most [m1] or [m2] bits (24 on the radix-48
    tier), which {!Fattree.Topology.create} caps at 62 so every mask
    fits the 63-bit int. *)

val popcount : int -> int
val full : int -> int
(** [full n] is the mask with bits [0 .. n-1] set. *)

val mem : int -> int -> bool
(** [mem mask i] tests bit [i]. *)

val to_list : int -> int list
(** Set bit indices, ascending. *)

val of_list : int list -> int
val to_array : int -> int array
(** Set bit indices, ascending: [Array.of_list (to_list m)], filled
    into a presized array.  Bit 62 and negative masks such as [lnot 0]
    are handled like any other. *)

val take_lowest : int -> int -> int
(** [take_lowest mask k] is the mask of the [k] lowest set bits of [mask].
    Raises [Invalid_argument] if [mask] has fewer than [k] bits. *)

val take_preferring : int -> prefer:int -> int -> int
(** [take_preferring mask ~prefer k] picks [k] bits of [mask], drawing
    from [mask land prefer] first (lowest-first), then from the rest of
    [mask].  Raises [Invalid_argument] if [mask] has fewer than [k]
    bits. *)

val subset : int -> of_:int -> bool
(** [subset a ~of_:b] is true iff every bit of [a] is set in [b]. *)
