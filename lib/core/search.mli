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
    and carries no budget.  Each shape first reads how many pods have
    its [l_t] candidate leaves from {!Fattree.State.candidate_pods}: a
    shape no pod can host is skipped without visiting a pod, and a
    shape's pass over pods stops once it has searched that many.  Both
    skip only pods {!find_two_level} would reject, so the result is
    {!find_two_level}'s over every (shape, pod). *)

val probe :
  Fattree.State.t ->
  job:int ->
  size:int ->
  alloc_size:int ->
  demand:float ->
  budget:int ->
  (budget:int ref -> Partition.t option) ->
  Partition.probe
(** The search driver every partition scheme's [probe] runs (Algorithm
    1).  [probe st ~job ~size ~alloc_size ~demand ~budget three_level]
    is [Infeasible] if [size <= 0], [alloc_size < size], or [alloc_size]
    exceeds the cluster or its free nodes; otherwise the {!two_level}
    partition if there is one; otherwise [three_level ~budget] with
    [budget] steps.  When that finds nothing, the verdict is [Exhausted]
    if the budget reached 0 and [Infeasible] otherwise, so the
    three-level search must cover its whole space whenever it leaves
    budget unspent. *)

type walk =
  | Complete of int
      (** The walk visited every solution; the steps it charged after
          the last one (or in all, if there was none). *)
  | Cut  (** The budget ran out before the walk finished. *)
  | Stopped  (** The callback asked the walk to stop. *)

val iter_all :
  Fattree.State.t ->
  pod:int ->
  l_t:int ->
  n_l:int ->
  demand:float ->
  budget:int ref ->
  (pod_solution -> steps:int -> bool) ->
  walk
(** Walks every set of [l_t] candidate leaves (for [n_l] nodes each)
    whose masks intersect in >= [n_l] indices, in lexicographic leaf
    order, calling [f sol ~steps] on each as soon as it is found.  One
    search step is charged to [budget] per node of the walk, and only
    while [budget] is positive: a walk that meets a non-positive budget
    stops there and returns [Cut].  [steps] counts the steps charged
    since the previous solution (or the start), including the one that
    reached [sol], so emitting solution [i] costs exactly its [steps]
    whatever [f] does to [budget] in between.  The walk stops with
    [Stopped] as soon as [f] returns [true].  Like {!find_two_level} it
    never descends into a leaf from which too few candidate leaves
    remain to reach [l_t]. *)

val materialize_leaf :
  Fattree.State.t -> leaf:int -> l2:int -> Partition.leaf_alloc
(** [materialize_leaf st ~leaf ~l2] holds the [Mask.popcount l2] lowest
    free nodes of [leaf] (as many nodes as uplinks, so the links
    balance) and uplinks them to the L2 index mask [l2].  Raises
    [Invalid_argument] if [leaf] has fewer free nodes. *)
