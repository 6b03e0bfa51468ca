(** Structured network partitions.

    A partition is the structured form of a job's allocation: which pods
    (two-level subtrees, "trees" in the paper) it occupies, which leaves
    and nodes within each pod, which L2 switches each leaf uplinks to, and
    which spines each L2 switch uplinks to.  It is the object over which
    the formal conditions of paper §3.2 are stated; [Conditions.check]
    validates a partition against them, and [Routing.Rearrange] routes
    permutations over it.

    Invariant vocabulary (paper notation):

    - [n_l]: nodes on each {e full} leaf; the common L2 index set [S] has
      this size.
    - [l_t]: full leaves in each {e full} tree; each allocated L2 switch
      of a full tree uplinks to [l_t] spines.
    - [t]: number of full trees.
    - remainder tree: at most one, with [l_rt < l_t] full leaves plus an
      optional remainder leaf of [n_rl < n_l] nodes on L2 subset
      [Sr ⊂ S].

    A {e two-level} partition occupies a single pod and allocates no
    spine cables (single-pod traffic never crosses spines).

    {b Ordering.}  A leaf's nodes and uplinks, and an L2 switch's
    spines, are bitmasks, so within a leaf or switch the order is
    structural: a mask expands to ascending ids and cannot hold an id
    twice.  What remains is the order of the arrays around them:
    [full_trees] by pod, each tree's [full_leaves] by leaf id and
    [spine_sets] by L2 index, all strictly ascending.  The remainder tree
    may lie in any pod not taken by a full tree (below, between or above
    them), and a remainder leaf on any leaf of its pod not taken by a
    full leaf.  Ids are row-major, so {!nodes} and {!to_alloc} build
    sorted arrays in one pass under this ordering, with no sort and one
    compare per leaf and per spine set; they raise [Invalid_argument]
    naming the leaf (or, for a spine set, the L2 switch) where an input
    breaks it.  Every allocator in this repository builds partitions
    this way. *)

type leaf_alloc = {
  leaf : int;  (** Global leaf id. *)
  slots : int;
      (** Nodes held: bit [s] is node [leaf * m1 + s]
          ({!Fattree.Topology.leaf_first_node} [+ s]). *)
  l2 : int;
      (** Uplinks: bit [i] is the cable to the pod's L2 switch at index
          [i].  Balanced links: as many bits as [slots]. *)
}

type tree_alloc = {
  pod : int;
  full_leaves : leaf_alloc array;  (** Leaves carrying [n_l] nodes each. *)
  rem_leaf : leaf_alloc option;  (** Remainder leaf, [< n_l] nodes. *)
  spine_sets : (int * int) array;
      (** [(i, s)] pairs: the pod's L2 switch at index [i] uplinks to the
          spines of its group whose indices are the bits of the mask [s].
          Empty for two-level partitions. *)
}

type t = {
  job : int;  (** Job identifier. *)
  size : int;  (** Requested node count. *)
  full_trees : tree_alloc array;
  rem_tree : tree_alloc option;
}

type kind = Two_level | Three_level

type probe = Found of t | Infeasible | Exhausted
(** Outcome of an allocation search.  [Infeasible] is a {e definitive}
    no-fit: the search covered its whole space without finding a legal
    partition, and since claims only remove resources the verdict stays
    valid until some allocation is released (the scheduler's no-fit memo
    relies on exactly this monotonicity).  [Exhausted] means the step
    budget ran out first, so feasibility is unknown and the result must
    not be memoized. *)

val kind : t -> kind
(** [Two_level] iff the partition occupies a single pod and allocates no
    spine cables. *)

val node_count : t -> int
(** Total nodes held (counting padding, if any). *)

val nodes : Fattree.Topology.t -> t -> int array
(** All node ids, sorted ascending.  Raises [Invalid_argument] if the
    leaves break the ordering above or a slot lies outside its leaf. *)

val n_l : t -> int
(** Nodes per full leaf.  Raises [Invalid_argument] on a partition with no
    full leaf (can only arise from hand-built ill-formed values). *)

val l2_index_set : t -> int array
(** The common L2 index set [S] (from the first full leaf), ascending. *)

val to_alloc : Fattree.Topology.t -> t -> bw:float -> Fattree.Alloc.t
(** Flatten to the resource-level allocation: all nodes, one leaf–L2 cable
    per (leaf, L2 index) pair, one L2–spine cable per (L2, spine index)
    pair, each demanding [bw].  The three id arrays are strictly
    ascending.  Each array is sized by popcount and filled by expanding
    masks, full masks by a plain count; raises [Invalid_argument] naming
    the leaf or L2 switch if the partition breaks the ordering above or
    a leaf, slot, L2 index or spine index lies outside the topology. *)

(** {1 Array views}

    For readers off the allocation hot path (condition checks, routing,
    printing, tests). *)

val leaf_nodes : Fattree.Topology.t -> leaf_alloc -> int array
(** The leaf's node ids, ascending. *)

val leaf_l2_indices : leaf_alloc -> int array
(** The L2 indices the leaf uplinks to, ascending. *)

val spine_indices : tree_alloc -> int -> int array option
(** [spine_indices tr i] is the spine indices, ascending, of the spine
    set [tr] declares for its L2 switch at index [i], if it declares
    one. *)

val leaf_of_arrays :
  Fattree.Topology.t ->
  leaf:int ->
  nodes:int array ->
  l2_indices:int array ->
  leaf_alloc
(** The leaf allocation holding node ids [nodes] on [leaf], uplinked to
    L2 indices [l2_indices], in any order.  Raises [Invalid_argument]
    naming the leaf if [leaf] is not a leaf of the topology, a node id
    repeats or lies outside [leaf], or an L2 index repeats or lies
    outside [0, m1). *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump: each leaf's slots and L2 indices,
    each L2 switch's spine indices. *)
