(** Bit counting on OCaml ints, shared by the state's per-leaf masks
    and the allocators' search masks. *)

val popcount : int -> int
(** Number of set bits among all 63 bits of the int, the sign bit
    included, computed branch-free. *)
