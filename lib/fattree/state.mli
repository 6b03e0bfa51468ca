(** Mutable cluster resource state.

    Tracks which nodes are busy and how much capacity remains on every
    leaf–L2 and L2–spine cable.  Cable capacity is normalized: 1.0 is the
    full usable capacity of a cable.  Exclusive allocations demand 1.0;
    the link-sharing scheduler (LC+S) demands a fraction.

    {!claim} is atomic: it either commits the whole allocation or rejects
    it and leaves the state untouched.  This is what makes the scheduler's
    isolation guarantee checkable — double allocation of a node or
    over-subscription of a cable is a claim-time error, not a silent
    overlap.

    Failures are a ref-counted overlay on the claim accounting
    ({!fail_node} and friends): a failed resource is withdrawn from every
    availability summary, so allocators avoid it through their normal
    mask/summary probes, while its claim state is preserved — a fault
    landing on claimed resources and the eventual release/repair compose
    in either order.  Ref counting makes overlapping faults (a node
    failed both individually and via its whole leaf switch) repair
    correctly: a resource returns only when every covering fault is
    repaired.

    {!claim}, {!release} and {!unrelease} cost one bookkeeping step per
    leaf (and per L2 switch) an allocation touches, plus one float
    update per cable, whatever the order of the allocation's arrays. *)

type t

val create : Topology.t -> t
(** [create topo] is a fully free cluster. *)

val topo : t -> Topology.t
val clone : t -> t

val copy_into : src:t -> dst:t -> unit
(** [copy_into ~src ~dst] refreshes [dst] to mirror [src] — the
    double-buffered scratch primitive behind zero-clone reservation
    search.  The two states must share topology dimensions.  [dst]
    takes [src]'s per-demand summaries ({!pod_candidates} rows and their
    {!candidate_pods} histograms, {!pod_spine_masks} and
    {!leaf_up_masks} rows), stamps included, so a row current in [src]
    is current in [dst]: they are blitted into [dst]'s own records for
    the demands both have, and [dst]'s records for demands [src] lacks
    are dropped.  The operation does {e not} count as a {!clone} in
    either state's tally.  It allocates only when [src] has had a fault
    and [dst] has not (the per-resource fault counts exist only from a
    state's first fault on), or when [src] has summaries at a demand
    [dst] has none for, or its demands in another order.  {!clone}
    starts its copy with no summaries. *)

(** {1 Nodes} *)

val node_free : t -> int -> bool
(** Available: neither claimed nor failed. *)

val node_claimed : t -> int -> bool
(** Held by a live allocation (possibly also failed). *)

val next_nonempty_leaf : t -> from:int -> int option
(** Smallest leaf id [>= from] with at least one free node, found by a
    word-level walk of the maintained nonempty-leaf bitset — on a
    saturated machine, allocator leaf scans skip whole busy regions 63
    leaves at a time instead of consulting each leaf's free count. *)

val any_claimed_in : t -> int array -> bool
(** True iff any listed node is held by a live allocation;
    short-circuits.  The fault path uses it to skip the running-job
    scan when a fault lands entirely on idle resources. *)

val free_nodes_on_leaf : t -> int -> int
(** Number of free nodes on a (global) leaf. *)

val free_slot_mask : t -> int -> int
(** [free_slot_mask t leaf] is the bitmask (over slots [0 .. m1-1]) of free
    nodes on [leaf]. *)

val leaf_fully_free : t -> int -> bool
(** All nodes free {e and} all uplink cables at full capacity.  O(1):
    answered from the incrementally maintained summaries. *)

val pod_fully_free_leaves : t -> pod:int -> int
(** Number of fully-free leaves in [pod], maintained incrementally. *)

val fully_free_pods : t -> int array
(** [(fully_free_pods t).(k)], for [k] in [0 .. m2], is the number of
    pods with at least [k] fully-free leaves: the machine-wide histogram
    of {!pod_fully_free_leaves}, kept current in O(1) per leaf update
    and copied by {!clone} and {!copy_into}.  The array is owned by the
    state — callers must not mutate it, and it moves with the next
    mutation.  Under [JIGSAW_VALIDATE=1] every call recounts it from the
    leaves and fails, naming the pod or the entry, on a mismatch. *)

val total_free_nodes : t -> int
(** Nodes neither claimed nor failed. *)

val busy_node_count : t -> int
(** Claimed nodes (failed-while-claimed ones included). *)

val failed_node_count : t -> int
(** Nodes currently covered by at least one live fault. *)

val healthy_node_count : t -> int
(** [num_nodes - failed_node_count]: the degraded machine size, the
    denominator of failure-aware utilization metrics. *)

val has_failures : t -> bool
(** Any resource — node or cable of either tier — currently covered by a
    live fault.  Distinguishes a definitive placement failure (nothing
    withdrawn, the machine will never get bigger) from transient
    degradation that a repair may undo. *)

val node_utilization : t -> float
(** [busy_node_count / num_nodes]. *)

(** {1 Generations}

    Monotone mutation counters, for caches layered above the state (the
    scheduler's no-fit memo, incremental consistency checks).  A failed
    allocation probe stays valid while {!release_generation} is
    unchanged: claims and failures only remove resources; releases and
    repairs only add them back. *)

val generation : t -> int
(** Total claims + releases + failures + repairs since creation.  It
    strictly increases on every claim, release, fail and repair, so an
    unchanged value means an unchanged state; only {!restore_counters}
    rewinds it, at checkpoint restore.  The scheduler's head-reservation
    memo is keyed on it. *)

val claim_generation : t -> int
(** Resource-removing mutations: successful claims + fail operations. *)

val release_generation : t -> int
(** Resource-adding mutations: releases + repair operations. *)

val pod_node_generation : t -> pod:int -> int
(** Per-pod stamp advanced by every mutation that can change the pod's
    leaf-level availability: node take/give, leaf-uplink capacity
    changes, and leaf-cable fail/repair.  Caches over per-pod leaf
    summaries validate against it. *)

(** {1 Operation counters} *)

(** The raw tallies behind the generations, read for profiling
    ([Obs.Prof]'s end-of-run ["state/*"] counters) and carried by
    checkpoints. *)
type counters = {
  claims : int;  (** Successful claims since creation. *)
  releases : int;  (** Releases since creation. *)
  failures : int;  (** Fail operations since creation. *)
  repairs : int;  (** Repair operations since creation. *)
  clones : int;
      (** Clones taken {e of this state} ({!clone} resets the copy's
          tally to 0) — the cost driver of reservation walks and probe
          validation. *)
}

val counters : t -> counters

val restore_counters : t -> counters -> unit
(** [restore_counters t c] overwrites the five operation tallies.  For
    checkpoint restore only: a restored state is rebuilt by replaying
    faults and re-claiming running allocations, which would otherwise
    leave the counters (and hence the generations that guard the no-fit
    memo, and the end-of-run ["state/*"] profile counters) different
    from the uninterrupted run's.  Raises [Invalid_argument] on a
    negative value. *)

(** {1 Cables}

    Remaining capacities are in [0, 1].  Masks report, per switch, which
    uplink indices have at least [demand] capacity remaining. *)

val leaf_up_remaining : t -> cable:int -> float
val l2_up_remaining : t -> cable:int -> float

val leaf_cable_claimed : t -> int -> bool
(** Raw claim accounting, failure overlay ignored: true iff a live
    allocation holds part of the cable.  Unlike [leaf_up_remaining],
    still meaningful after the cable has failed. *)

val l2_cable_claimed : t -> int -> bool

val leaf_up_mask : t -> leaf:int -> demand:float -> int
(** Bitmask over L2 indices [0 .. m1-1], from the cables' capacities
    (the maintained full-capacity word at demand 1.0).  Searches read
    the cached rows of {!leaf_up_masks} instead. *)

val l2_up_mask : t -> l2:int -> demand:float -> int
(** Bitmask over spine indices [0 .. m2-1]. *)

(** {1 Claim / release} *)

val claim : ?validate:bool -> t -> Alloc.t -> (unit, string) result
(** [claim t a] atomically marks [a]'s nodes busy and subtracts [a.bw]
    from each listed cable.  Fails (leaving [t] unchanged) if any node is
    busy, any cable lacks capacity, or the allocation lists a node or
    cable twice.

    [~validate:false] skips those checks (the duplicate scan is
    O(n log n) and dominates simulator hot loops) — callers must have
    established legality themselves, e.g. by claiming exactly what a
    pure allocator probe against the same state proposed.  Setting the
    environment variable [JIGSAW_VALIDATE=1] re-enables validation
    everywhere, turning any illegal unchecked claim back into an
    error. *)

val forced_validation : bool
(** Whether [JIGSAW_VALIDATE=1] is set: checked paths everywhere, and
    caches above the state (the scheduler's reservation memo) cross-check
    each reuse against a fresh computation. *)

val claim_exn : ?validate:bool -> t -> Alloc.t -> unit
(** Like {!claim} but raises [Invalid_argument] on failure. *)

val release : t -> Alloc.t -> unit
(** [release t a] returns [a]'s resources.  Raises [Invalid_argument],
    naming the offending resource and its current state, if a node was
    not claimed or a cable's capacity would exceed 1.0 — that is, if [a]
    was not currently claimed.  Nodes of [a] that failed while claimed
    stay withdrawn from the availability summaries until repaired. *)

val unrelease : t -> Alloc.t -> unit
(** [unrelease t a] is the exact inverse of the latest [release t a]:
    every observable of [t] — free and claimed sets, per-leaf counts,
    slot and full-capacity masks, cable capacities to the bit,
    [failed_claimed], busy count — returns to its value before that
    release, with any fail or repair in between kept.  A node failed
    while released comes back failed-while-claimed, as {!release}
    leaves it; no claim validation runs, so the inverse also holds
    under [JIGSAW_VALIDATE=1].  Releases undo last-in first-out, and a
    {!claim} or {!copy_into} in between forfeits them: raises
    [Invalid_argument] unless [a] (physically) is the most recent
    release still undoable.  Counts as a claim in the generations;
    per-pod stamps advance, so caches revalidate. *)

(** {1 Fail / repair}

    Each operation covers one resource with one fault (or removes one).
    Failing a free resource withdraws it from the availability summaries
    exactly like a claim; failing a claimed resource leaves the claim
    intact and the two overlays unwind independently.  All operations
    are O(1) against the incremental summaries. *)

val fail_node : t -> int -> unit
val repair_node : t -> int -> unit
(** Raises [Invalid_argument] if the node has no live fault. *)

val fail_leaf_cable : t -> int -> unit
val repair_leaf_cable : t -> int -> unit
val fail_l2_cable : t -> int -> unit
val repair_l2_cable : t -> int -> unit

val node_failed : t -> int -> bool
val leaf_cable_failed : t -> int -> bool
val l2_cable_failed : t -> int -> bool

(** {1 Incremental feasibility summaries}

    Per-pod candidate structures maintained lazily against the pod
    generation counters: a probe consults the cached row; a mutation in
    the pod invalidates (only) that pod's row, which is rebuilt on its
    next consultation, and moves the per-demand {!candidate_pods}
    histogram by the row's delta.  Answers are bit-identical to a
    from-scratch scan — the property tests in test_incremental.ml check
    this on random claim/release/unrelease/fail/repair sequences, with
    clones and copies in between.  {!copy_into} carries the rows to its
    destination. *)

val pod_candidates : t -> pod:int -> demand:float -> int array
(** [pod_candidates t ~pod ~demand].(n-1) is the number of leaves in
    [pod] that could carry [n] nodes at [demand]: free nodes >= n and
    at least [n] uplink indices with [demand] capacity remaining.  The
    returned array is owned by the cache — callers must not mutate it,
    and it is valid until the pod's next mutation. *)

val candidate_pods : t -> demand:float -> int array array
(** [(candidate_pods t ~demand).(n-1).(k)], for [k] in [0 .. m2], is
    the number of pods with at least [k] candidate leaves for [n] nodes
    at [demand] — the machine-wide histogram of the {!pod_candidates}
    rows, so a search can tell in O(1) whether any pod can host [k]
    such leaves.  It is moved by each row's delta when the row is
    recomputed; a call brings the rows moved since the previous call up
    to date (O(pods) stamp checks, or O(1) when no pod has changed) and
    never rebuilds the histogram whole.  Same ownership rules as
    {!pod_candidates}.  Under [JIGSAW_VALIDATE=1] every call recounts
    each row from the leaves and the histogram from the rows, failing
    with the pod and demand on a mismatch. *)

val pod_spine_masks : t -> pod:int -> demand:float -> int array
(** [pod_spine_masks t ~pod ~demand].(i) is {!l2_up_mask} of the pod's
    [i]-th L2 switch at [demand].  Same ownership rules as
    {!pod_candidates}. *)

val leaf_up_masks : t -> pod:int -> demand:float -> int array
(** [(leaf_up_masks t ~pod ~demand).(leaf)], for every global leaf id
    [leaf] of [pod], is {!leaf_up_mask} of [leaf] at [demand]: one flat
    per-leaf array, in which the entries of other pods may be stale.
    Demand 1.0 returns the maintained full-capacity words.  Any other
    demand reads its record's row, refreshed for [pod] when the pod's
    {!pod_node_generation} moved; the refresh reads the floats of only
    the cables below full capacity, so a leaf with every uplink at full
    capacity costs O(1).  Same ownership rules as {!pod_candidates}.
    Under [JIGSAW_VALIDATE=1] every call re-derives each of [pod]'s
    leaves from its cables and fails, naming the pod, the leaf and the
    demand, on a mismatch. *)
