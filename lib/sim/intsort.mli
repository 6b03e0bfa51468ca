(** In-place ascending sort specialized to [int array].

    Same result as [Array.sort Int.compare] but with the comparison
    compiled monomorphically — an order of magnitude faster on
    few-hundred-entry id arrays. *)

val sort : int array -> unit
(** Sort ascending, in place. *)

val of_list : int list -> int array
(** [of_list l] is [l] as a freshly sorted array. *)
