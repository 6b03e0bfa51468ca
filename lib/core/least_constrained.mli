(** Least-constrained allocation search (the LC of LC+S, paper §5.2.3).

    Searches the {e full} condition space of §3.2 — any nodes-per-leaf
    value [n_l], not just full leaves — making it strictly more permissive
    than Jigsaw's three-level search.  Combined with fractional link
    demands (link sharing), this is the paper's theoretical near-optimal
    bounding scheduler.

    The search space is exponential in the tree size, so every search
    carries a step budget standing in for the paper's wall-clock timeout
    (§5.3); [probe] runs {!Search.probe}, and budget exhaustion returns
    [Exhausted] and the job stays queued. *)

val default_budget : int
(** Default step budget per allocation attempt.  Chosen so that typical
    attempts complete while adversarial states cut off in well under a
    second of wall-clock time. *)

val probe :
  ?demand:float ->
  ?budget:int ->
  Fattree.State.t ->
  job:int ->
  size:int ->
  Partition.probe
(** [probe st ~job ~size] is [Found p] with a condition-compliant
    partition whose cables all have at least [demand] (default 1.0)
    remaining capacity, [Infeasible] when none exists, or [Exhausted]
    when [budget] (default {!default_budget}) ran out first — common for
    this scheduler, and never to enter a no-fit memo.  Two-level
    placements are tried first, then three-level shapes over every [n_l]
    (dense-first). *)
