(** Jigsaw's adjusted static routing within a partition (paper Figure 5).

    Once a job receives a partition, the system routing tables must be
    changed so the job's traffic stays on its allocated cables: plain
    D-mod-k is unaware of the allocation and would hop onto unallocated
    links.  Jigsaw maps D-mod-k onto the partition — destinations select
    L2 switches and spines by their {e rank within the allocation} rather
    than their physical id — and uses {e wraparound} on remainder
    switches, whose allocated uplink sets are smaller.

    The resulting routing is deterministic and destination-based (so it
    is implementable with InfiniBand linear forwarding tables; {!Fwd}
    compiles it).  Unlike {!Rearrange}, it does not guarantee one flow
    per channel for every permutation; it guarantees that every pair of
    the job's nodes is connected using only allocated cables.

    The router reads the flat allocation alone, so routing is a pure
    function of (topology, allocation): {!Telemetry}'s [Jigsaw] policy
    routes running jobs through it, and checkpoint restore re-routes
    them to the same paths (DESIGN.md §15). *)

type view
(** An allocation indexed for routing: each held node's leaf and rank
    on it, each leaf's allocated L2 indices and rank among the job's
    leaves in its pod, and each allocated L2 switch's spines. *)

val view : Fattree.Topology.t -> Fattree.Alloc.t -> view
(** Build once per allocation; routing a flow then costs a few table
    lookups. *)

val route : view -> src:int -> dst:int -> (Path.t, string) result
(** The adjusted-D-mod-k route between two held nodes: the destination's
    rank on its leaf picks the L2 index (wrapping around remainder
    leaves' smaller uplink sets, intersecting them where both ends are
    constrained), and the destination leaf's rank picks the spine among
    those both pods reach at that index.  Errors if either endpoint is
    not held, or if the allocation holds no cables joining them (a
    Baseline allocation holds none). *)

val each_pair :
  int array -> (src:int -> dst:int -> (unit, string) result) -> (unit, string) result
(** [each_pair nodes f] runs [f] on every ordered pair of distinct
    [nodes] and stops at the first [Error]. *)

val path :
  Fattree.Topology.t ->
  Jigsaw_core.Partition.t ->
  src:int ->
  dst:int ->
  (Path.t, string) result
(** {!route} over the partition's allocation.  Errors if either endpoint
    is not in the partition. *)

val all_pairs : Fattree.Topology.t -> Jigsaw_core.Partition.t -> Path.t list
(** Routes for every ordered pair of distinct nodes.  Raises
    [Invalid_argument] on foreign nodes (cannot happen for partitions). *)

val check_connectivity :
  Fattree.Topology.t -> Jigsaw_core.Partition.t -> (unit, string) result
(** Verifies that every ordered pair routes successfully and that every
    hop of every route is an allocated cable. *)
