(** Pod-level (two-level) allocation search.

    This is the [find_L2]/[find_all_L2] machinery of Algorithm 1: finding
    sets of leaves within one pod that can carry a job (or a tree's share
    of a job) while satisfying the common-L2-set condition.

    A {e candidate leaf} for [n] nodes at link demand [d] is one with at
    least [n] free nodes and at least [n] uplink cables with remaining
    capacity >= [d].  A {e pod solution} for [l_t] leaves of [n_l] nodes
    is a set of candidate leaves whose uplink-availability masks intersect
    in at least [n_l] L2 indices; the intersection is the solution's
    capability mask, from which the common set [S] is later drawn. *)

type leaf_info = {
  leaf : int;  (** Global leaf id. *)
  free : int;  (** Free node count. *)
  up_mask : int;  (** L2 indices (bitmask over [0..m1)) with capacity. *)
}

val pod_leaf_infos :
  Fattree.State.t -> pod:int -> demand:float -> leaf_info array
(** Per-leaf availability for every leaf of [pod], in leaf order. *)

type pod_solution = {
  leaf_mask : int;  (** In-pod leaf indices (bitmask over [0..m2)). *)
  cap_mask : int;  (** Intersection of the leaves' uplink masks. *)
}

val find_two_level :
  Fattree.State.t ->
  job:int ->
  pod:int ->
  shape:Shapes.two_level ->
  demand:float ->
  Partition.tree_alloc option
(** First single-pod allocation matching [shape] (backtracking over leaves
    in index order), or [None].  The returned tree allocation carries
    concrete nodes, L2 index sets (including the remainder leaf's
    [Sr ⊂ S]) and no spine sets.  Never descends into a leaf once fewer
    candidate leaves remain from it onwards than the shape still needs,
    and rejects a pod without [l_t] candidate leaves from
    {!Fattree.State.pod_candidates} before reading its leaves. *)

val two_level :
  Fattree.State.t ->
  job:int ->
  size:int ->
  alloc_size:int ->
  demand:float ->
  Partition.t option
(** First single-pod partition of [alloc_size] nodes for a job of [size]
    nodes: {!find_two_level} over {!Shapes.two_level} shapes dense-first,
    and pods in index order within each shape.  The search is exhaustive
    and carries no budget. *)

val find_all :
  Fattree.State.t ->
  pod:int ->
  l_t:int ->
  n_l:int ->
  demand:float ->
  budget:int ref ->
  pod_solution list
(** Every set of [l_t] candidate leaves (for [n_l] nodes each) whose masks
    intersect in >= [n_l] indices.  Decrements [budget] per search step
    and stops early (returning the solutions found so far) when it
    reaches zero.  Solutions are emitted in lexicographic leaf order.
    Like {!find_two_level} it never descends into a leaf from which too
    few candidate leaves remain to reach [l_t]. *)

val materialize_leaf :
  Fattree.State.t ->
  leaf:int ->
  take:int ->
  l2_indices:int array ->
  Partition.leaf_alloc
(** [materialize_leaf st ~leaf ~take ~l2_indices] picks the [take] lowest
    free nodes of [leaf] and pairs them with the given uplink index set
    (which must have length [take]). *)
