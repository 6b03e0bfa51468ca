(** The formal allocation conditions of paper §3.2, as an executable
    checker.

    [check] validates a {!Partition.t} against:

    - {b structural sanity}: ids and mask bits in range, leaves in their
      stated pods, no leaf, pod or spine set listed twice.  Node, uplink
      and spine sets are masks, which can neither repeat nor misorder an
      id; {!Partition.leaf_of_arrays} rejects the node arrays that
      could;
    - {b balanced links}: every leaf uplinks to exactly as many L2
      switches as it has allocated nodes (condition for both full
      bandwidth and minimal link use);
    - {b condition 1–3} (node distribution): full trees carry equal node
      counts; within every tree, full leaves carry equal counts [n_l];
      at most one remainder leaf, with fewer than [n_l] nodes, located in
      the remainder tree;
    - {b condition 4}: within each tree, full leaves uplink to a common
      L2 index set [S] ([|S| = n_l]); the remainder leaf uplinks to
      [Sr ⊂ S];
    - {b condition 5}: the set [S] is the same (same indices) in every
      tree of the allocation;
    - {b condition 6} (spine level): for each [i ∈ S], the L2 switch at
      index [i] of every full tree uplinks to the same spine index set
      [S*_i] with [|S*_i| = l_t] (balanced with its downlinks); the
      remainder tree's switch uplinks to [S*r_i ⊆ S*_i] sized to its own
      downlink count;
    - {b two-level minimality}: a single-pod partition must not allocate
      spine cables;
    - {b high-utilization} (optional): the node count equals the
      requested size ([N = Nr]).  LaaS-style padded partitions set
      [require_exact_size:false]. *)

val check :
  ?require_exact_size:bool ->
  Fattree.Topology.t ->
  Partition.t ->
  (unit, string) result
(** [check topo p] is [Ok ()] iff [p] satisfies every condition above.
    [require_exact_size] defaults to [true].  The error string names the
    first violated condition. *)

val is_legal : ?require_exact_size:bool -> Fattree.Topology.t -> Partition.t -> bool
(** [is_legal topo p = Result.is_ok (check topo p)]. *)
