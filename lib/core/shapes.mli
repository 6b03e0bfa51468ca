(** Enumeration of legal allocation shapes (decompositions).

    A job of [size] nodes can be placed two-level (single pod) as
    [size = l_t * n_l + n_rl] with [n_rl < n_l], or three-level as
    [size = t * n_t + n_rt] with [n_t = l_t * n_l], [n_rt < n_t] and
    [n_l | n_t].  Because [n_rl = size mod n_l] and [n_rt = size mod n_t]
    are forced, a two-level shape is determined by [n_l] alone and a
    three-level shape by [(n_l, l_t)].

    Shapes are emitted dense-first (largest [n_l], then largest [l_t]):
    denser placements touch fewer leaves/pods, which reduces the spread of
    partially-used switches across the machine (paper §4's motivation for
    restricting the condition space). *)

type two_level = {
  n_l : int;  (** Nodes per full leaf. *)
  l_t : int;  (** Number of full leaves. *)
  n_rl : int;  (** Nodes on the remainder leaf (0 = none). *)
}

type three_level = {
  n_l3 : int;  (** Nodes per full leaf. *)
  l_t3 : int;  (** Full leaves per full tree. *)
  t : int;  (** Number of full trees. *)
  n_rt : int;  (** Nodes in the remainder tree (0 = none). *)
  l_rt : int;  (** Full leaves in the remainder tree. *)
  n_rl3 : int;  (** Nodes on the remainder leaf of the remainder tree. *)
}

val two_level : Fattree.Topology.t -> size:int -> two_level list
(** All two-level shapes for a job of [size] nodes on the given topology:
    [n_l] ranges over [min m1 size] down to 1, subject to the pod having
    enough leaves.  Empty if [size] exceeds a pod or is non-positive. *)

val three_level :
  Fattree.Topology.t -> size:int -> n_l:int -> three_level list
(** All three-level shapes with the given (fixed) [n_l]: [l_t] ranges from
    [min m2 (size/n_l)] down to 1, subject to pod count.  Single-pod
    shapes ([t = 1], no remainder) are omitted — they are two-level
    shapes and are searched first.  Empty if no shape fits. *)

val three_level_all :
  Fattree.Topology.t -> size:int -> (three_level -> bool) -> unit
(** [three_level_all topo ~size f] walks the full least-constrained
    shape space lazily: {!three_level} for [n_l = m1], then [m1 - 1],
    down to 1 (dense-first), each in its own order, calling [f] on one
    shape at a time and stopping as soon as [f] returns [true].  Shapes
    past that point are never built, so a search that takes one of the
    first shapes costs nothing for the rest. *)
