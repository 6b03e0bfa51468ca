(** Links as a Service (LaaS) scheduling [Zahavi et al. 2016].

    LaaS allocates dedicated links and nodes like Jigsaw, but avoids the
    three-level placement problem by reducing it to two levels: whole
    leaves take the place of nodes, so every request is rounded up to a
    multiple of the leaf size.  The rounding causes the internal node
    fragmentation (grey nodes of the paper's Figure 2, left) that keeps
    LaaS utilization at 90–93%.

    The placement itself is a special case of the Jigsaw condition space
    (full leaves, no remainder leaf): [probe] runs Jigsaw's single-pod
    pass ([Search.two_level]) and then [Jigsaw.probe_whole_leaves]. *)

val probe :
  ?budget:int ->
  Fattree.State.t ->
  job:int ->
  size:int ->
  Jigsaw_core.Partition.probe
(** [Found p] with Jigsaw's unpadded single-pod partition if there is
    one, else with a whole-leaf partition holding [ceil(size / m1) * m1]
    nodes; [Infeasible] when neither exists, or [Exhausted] when [budget]
    cut the whole-leaf search short (see {!Jigsaw_core.Partition.probe}).
    [Partition.to_alloc] of a padded partition claims the padded node
    set; the partition records the requested [size]. *)
