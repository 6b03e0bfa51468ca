(** Links as a Service (LaaS) scheduling [Zahavi et al. 2016].

    LaaS allocates dedicated links and nodes like Jigsaw, but avoids the
    three-level placement problem by reducing it to two levels: whole
    leaves take the place of nodes, so every request is rounded up to a
    multiple of the leaf size.  The rounding causes the internal node
    fragmentation (grey nodes of the paper's Figure 2, left) that keeps
    LaaS utilization at 90–93%.

    The placement itself is a special case of the Jigsaw condition space
    (full leaves, no remainder leaf), so this module delegates to
    [Jigsaw.probe_whole_leaves]. *)

val probe :
  ?budget:int ->
  Fattree.State.t ->
  job:int ->
  size:int ->
  Jigsaw_core.Partition.probe
(** Like {!get_allocation} but distinguishes a definitive no-fit from a
    search-budget cut-off (see {!Jigsaw_core.Partition.probe}). *)

val get_allocation :
  ?budget:int ->
  Fattree.State.t ->
  job:int ->
  size:int ->
  Jigsaw_core.Partition.t option
(** A whole-leaf partition holding [ceil(size / m1) * m1] nodes, or
    [None].  [Partition.to_alloc] of the result claims the padded node
    set; the partition records the requested [size]. *)
