(** Flat allocation records.

    An [Alloc.t] is the resource-level view of a job's allocation: the set
    of nodes, the set of leaf–L2 cables and the set of L2–spine cables it
    holds, together with the per-cable bandwidth demand.  Exclusive
    (isolating) schedulers use demand 1.0 — the whole cable; the LC+S
    bounding scheduler uses fractional demands so that several jobs may
    share a cable.

    Structured, condition-checkable allocations live in
    [Jigsaw.Partition]; they flatten to this type for claiming and
    releasing resources in {!State}.

    Ordering is not part of this type's contract.  Allocations built by
    [Partition.to_alloc] hold each id array strictly ascending, and so
    do the Baseline and TA allocators' flat ones; an allocation grown in
    place by a moldable resize ([Allocator]'s grow within the job's own
    leaves) appends its new nodes after the old ones, so its [nodes] are
    not ascending.  Code that needs sorted ids sorts them itself. *)

type t = {
  job : int;  (** Job identifier (caller-chosen; not interpreted). *)
  size : int;  (** Number of nodes the job {e requested}. *)
  nodes : int array;  (** Node ids held.  May exceed [size] for padding schedulers (LaaS). *)
  leaf_cables : int array;  (** Leaf–L2 cable ids held. *)
  l2_cables : int array;  (** L2–spine cable ids held. *)
  bw : float;  (** Per-cable demand in (0, 1]; 1.0 = exclusive. *)
}

val nodes_only : job:int -> size:int -> int array -> t
(** [nodes_only ~job ~size nodes] is an allocation holding [nodes] and no
    cables — the traditional-scheduler (Baseline) shape. *)

val exclusive :
  job:int ->
  size:int ->
  nodes:int array ->
  leaf_cables:int array ->
  l2_cables:int array ->
  t
(** An allocation with demand 1.0 on every listed cable. *)

val node_count : t -> int
(** [node_count a] is the number of nodes held (>= [a.size]). *)

val padding : t -> int
(** [padding a] is [node_count a - a.size] — nodes held but not requested
    (internal fragmentation). *)

val disjoint : t -> t -> bool
(** [disjoint a b] is true iff [a] and [b] share no node and no cable.
    (Cables shared fractionally still count as shared here; the check is
    used for conservative backfilling.) *)

val pp : Format.formatter -> t -> unit
