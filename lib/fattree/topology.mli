(** Full-bandwidth three-level fat-tree topologies.

    A three-level fat-tree (folded-Clos network) is parameterized, in XGFT
    notation, by [m1] (nodes per leaf switch), [m2] (leaves per pod, i.e.
    per two-level subtree) and [m3] (number of pods).  We model {e full
    bandwidth} trees, so the parent counts are fixed: each leaf has
    [w2 = m1] parent L2 switches and each L2 switch has [w3 = m2] parent
    spines.

    Structure of the maximal tree (no redundant spine connections):

    - each pod contains [m2] leaves and [m1] L2 switches; every leaf has
      exactly one cable to every L2 switch of its pod;
    - the spines form [m1] {e spine groups}, one per L2 index; group [i]
      contains [m2] spines and is a complete bipartite graph with the
      [i]-th L2 switch of every pod (one cable per L2/spine pair).  The
      paper denotes this group, with its switches and links, T*_i.

    A cluster built from radix-[k] switches is the instance
    [m1 = m2 = k/2], [m3 = k], giving [k^3/4] nodes: radix 16, 18, 22, 28
    yield the paper's 1024-, 1458-, 2662- and 5488-node clusters.

    Identifier scheme (all dense integers from 0):

    - node [n]: pod [n / (m1*m2)], leaf-in-pod [(n / m1) mod m2], slot
      [n mod m1];
    - leaf [l]: pod [l / m2], index-in-pod [l mod m2];
    - L2 switch [s]: pod [s / m1], index-in-pod [s mod m1] (which equals
      its spine-group index);
    - spine [sp]: group [sp / m2], index-in-group [sp mod m2].

    Cables are grouped in two tiers.  Node–leaf cables are identified with
    the node itself.  Leaf–L2 cables are [leaf * m1 + l2_index]; L2–spine
    cables are [l2 * m2 + spine_index_in_group]. *)

type t
(** An immutable topology description. *)

val create : nodes_per_leaf:int -> leaves_per_pod:int -> pods:int -> t
(** [create ~nodes_per_leaf ~leaves_per_pod ~pods] is a full-bandwidth
    three-level fat-tree with the given XGFT parameters [m1, m2, m3].  All
    parameters must be >= 1, and [m1] and [m2] at most 62 (allocation
    search keeps slot, leaf and L2-index sets in OCaml-int bitmasks).
    Raises [Invalid_argument] otherwise. *)

val of_radix : int -> t
(** [of_radix k] is the maximal three-level fat-tree built from radix-[k]
    switches: [m1 = m2 = k/2], [m3 = k].  [k] must be even, >= 2 and at
    most 124 (see {!create}). *)

val radix : t -> int option
(** [radix t] is [Some k] if [t] has the maximal radix-[k] shape, [None]
    for other parameter combinations. *)

(** {1 Parameters} *)

val m1 : t -> int
(** Nodes per leaf (= L2 switches per pod = number of spine groups). *)

val m2 : t -> int
(** Leaves per pod (= spine uplinks per L2 switch = spines per group). *)

val m3 : t -> int
(** Number of pods (= downlinks per spine). *)

val nodes_per_leaf : t -> int
(** Alias for {!m1}. *)

val leaves_per_pod : t -> int
(** Alias for {!m2}. *)

val pods : t -> int
(** Alias for {!m3}. *)

val l2_per_pod : t -> int
(** L2 switches per pod; equals {!m1} for full-bandwidth trees. *)

val spine_groups : t -> int
(** Number of spine groups; equals {!m1}. *)

val spines_per_group : t -> int
(** Spines per group; equals {!m2}. *)

val nodes_per_pod : t -> int
(** [m1 * m2]. *)

val num_nodes : t -> int
(** [m1 * m2 * m3]. *)

val num_leaves : t -> int
(** [m2 * m3]. *)

val num_l2 : t -> int
(** [m1 * m3]. *)

val num_spines : t -> int
(** [m1 * m2]. *)

val num_leaf_l2_cables : t -> int
(** Total leaf–L2 cables: [m1 * m2 * m3]. *)

val num_l2_spine_cables : t -> int
(** Total L2–spine cables: [m1 * m2 * m3]. *)

(** {1 Coordinate conversions} *)

val node_of_coords : t -> pod:int -> leaf:int -> slot:int -> int
(** [node_of_coords t ~pod ~leaf ~slot] is the node id at [slot] of leaf
    [leaf] (index within pod) of pod [pod].  Bounds-checked. *)

val node_pod : t -> int -> int
val node_leaf : t -> int -> int
(** [node_leaf t n] is the {e global} leaf id hosting node [n]. *)

val node_slot : t -> int -> int

val leaf_of_coords : t -> pod:int -> leaf:int -> int
(** Global leaf id from pod coordinates. *)

val leaf_pod : t -> int -> int
val leaf_index_in_pod : t -> int -> int
val leaf_first_node : t -> int -> int
(** [leaf_first_node t l] is the lowest node id on leaf [l]; the leaf's
    nodes are the contiguous range of length [m1] starting there. *)

val l2_of_coords : t -> pod:int -> index:int -> int
(** Global L2 id from pod coordinates; [index] is the position within the
    pod, equal to the spine-group index. *)

val l2_pod : t -> int -> int
val l2_index_in_pod : t -> int -> int

val spine_group : t -> int -> int
val spine_index_in_group : t -> int -> int

(** {1 Cables} *)

val leaf_l2_cable : t -> leaf:int -> l2_index:int -> int
(** The cable between (global) leaf [leaf] and the L2 switch at [l2_index]
    within the leaf's pod. *)

val leaf_l2_cable_leaf : t -> int -> int
val leaf_l2_cable_l2_index : t -> int -> int

val l2_spine_cable : t -> l2:int -> spine_index:int -> int
(** The cable between (global) L2 switch [l2] and the spine at
    [spine_index] within the switch's group. *)

val l2_spine_cable_l2 : t -> int -> int
val l2_spine_cable_spine_index : t -> int -> int

val spine_of_l2_cable : t -> int -> int
(** [spine_of_l2_cable t c] is the global spine id at the far end of
    L2–spine cable [c]. *)

val l2_of_spine_pod : t -> spine:int -> pod:int -> int
(** [l2_of_spine_pod t ~spine ~pod] is the (unique) global L2 switch of
    [pod] connected to [spine] — the switch at the spine's group index. *)

(** {1 Validation and printing} *)

val validate : t -> (unit, string) result
(** [validate t] re-checks the structural invariants (positive parameters,
    full-bandwidth balance, identifier-space sizes).  Always [Ok] for
    values built by {!create}/{!of_radix}; exposed for property tests. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line description. *)

val to_string : t -> string
