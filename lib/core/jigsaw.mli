(** The Jigsaw allocation algorithm (paper §4, Algorithm 1).

    [probe] searches for a partition satisfying the formal conditions of
    §3.2, restricted — as Jigsaw requires — to {e full leaves} ([n_l] =
    nodes-per-leaf) for allocations spanning more than one pod.  It runs
    {!Search.probe}: two-level (single-pod) allocations are tried first,
    over every decomposition [size = l_t·n_l + n_rl] with any [n_l]; if
    none fits, three-level allocations [size = t·n_t + n_rt] are tried
    with recursive backtracking over pods, requiring a consistent L2
    index set and common spine sets per L2 index.

    A found partition has not been claimed: callers claim
    [Partition.to_alloc topo p ~bw:demand] against the state.  The search
    only proposes resources that are free at the given demand, so an
    immediate claim always succeeds (single-threaded schedulers). *)

val default_budget : int
(** Backtracking-step backstop (the paper's Jigsaw needs no timeout; this
    bound is orders of magnitude above what searches use in practice and
    exists to keep adversarial states from hanging a simulation). *)

val probe :
  ?demand:float ->
  ?budget:int ->
  Fattree.State.t ->
  job:int ->
  size:int ->
  Partition.probe
(** [probe st ~job ~size] is [Found p] with the first Jigsaw-compliant
    partition for a [size]-node job on the current state, [Infeasible]
    when the search covered its space without one, or [Exhausted] when
    [budget] (default {!default_budget}) cut the pod backtracking short.
    The scheduler's no-fit memo may only cache [Infeasible].  [demand]
    (default 1.0) is the per-cable bandwidth fraction to require and is
    1.0 for the isolating scheduler; fractions are used by the LC+S
    bounding scheduler. *)

val probe_whole_leaves :
  ?demand:float ->
  ?budget:int ->
  Fattree.State.t ->
  job:int ->
  size:int ->
  Partition.probe
(** The Links-as-a-Service placement mode: the request is rounded up to
    whole leaves (alloc = ceil(size / m1) * m1 nodes) and only full-leaf
    shapes are searched, reproducing LaaS's reduction of the three-level
    problem to two levels.  A found partition carries the padded node
    set but records the original [size], exposing LaaS's internal node
    fragmentation to the utilization metrics. *)
