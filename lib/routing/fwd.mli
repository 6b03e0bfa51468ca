(** Destination-based forwarding tables for partitions.

    The paper deploys Jigsaw's adjusted routing by rewriting switch
    forwarding tables through the InfiniBand subnet manager (§4, Figure
    5).  This module performs that compilation step in the simulator:
    it turns {!Partition_routing}'s router into per-switch {e
    linear forwarding tables} — destination node → output port — and
    provides a hop-by-hop packet walk that delivers packets using table
    lookups alone.

    Port numbering (per switch):

    - leaf switch: ports [0 .. m1-1] go down to the leaf's nodes (by
      slot); ports [m1 .. 2*m1-1] go up to the pod's L2 switches (port
      [m1 + i] to index [i]);
    - L2 switch: ports [0 .. m2-1] go down to the pod's leaves; ports
      [m2 .. 2*m2-1] go up to the group's spines;
    - spine: ports [0 .. m3-1] go down to the pods.

    Compilation checks the {e destination-based} property: within one
    switch, every flow to a given destination must use the same output
    port (different switches may disagree — that is what per-switch
    tables are for).  The adjusted routing satisfies this by
    construction; [compile] reports a conflict as an error rather than
    silently producing an ambiguous table. *)

type switch = Leaf of int | L2 of int | Spine of int
(** Switch identifiers (global leaf / L2 / spine ids). *)

type t
(** A compiled forwarding-table set for one partition. *)

val compile :
  Fattree.Topology.t -> Jigsaw_core.Partition.t -> (t, string) result
(** [compile topo p] derives tables covering every ordered pair of [p]'s
    nodes.  Errors on a destination-based-routing conflict or an
    unroutable pair (neither occurs for condition-compliant
    partitions). *)

val lookup : t -> switch:switch -> dst:int -> int option
(** [lookup t ~switch ~dst] is the output port, if the table has an
    entry. *)

val num_entries : t -> int
(** Total entries across all switches (a size measure for the tables the
    subnet manager would install). *)

val switches : t -> switch list
(** Switches that carry at least one entry. *)

val walk :
  Fattree.Topology.t -> t -> src:int -> dst:int -> (Path.t, string) result
(** [walk topo t ~src ~dst] forwards a packet by table lookups only:
    from [src]'s leaf, through L2 (and spine) switches, to [dst].
    Returns the cable-level path taken, or an error if a lookup is
    missing or the packet exceeds the 4-hop diameter (a routing loop). *)

val verify_all_pairs :
  Fattree.Topology.t -> Jigsaw_core.Partition.t -> t -> (unit, string) result
(** Walks every ordered pair of the partition's nodes and checks each
    packet (a) arrives, and (b) uses only allocated cables. *)
