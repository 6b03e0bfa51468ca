(** The pluggable placement policies compared in the paper (§5.2).

    An allocator proposes an allocation for a job against the current
    resource state without claiming it; the simulator claims and releases
    through [Fattree.State], so isolation violations surface as claim
    errors rather than silent overlaps. *)

type verdict =
  | Alloc of Fattree.Alloc.t  (** A claimable allocation. *)
  | No_fit
      (** Definitively infeasible on this state.  The verdict is
          monotone under claims: it stays [No_fit] until a release adds
          resources back, which is what lets the simulator memoize it. *)
  | Gave_up
      (** The search budget ran out before the space was covered
          (LC/LC+S under the paper's §5.3 timeout stand-in); feasibility
          is unknown, so this must never be cached. *)

(** Verdict of a size-negotiating probe ({!type-t.probe_sized}). *)
type sized_verdict =
  | Sized of { granted : int; alloc : Fattree.Alloc.t }
      (** A claimable allocation for [granted] nodes, the largest
          feasible size in the job's [min_size, pref] range (always
          [alloc.size = granted]; exactly [job.size] for rigid jobs). *)
  | Sized_no_fit
      (** Definitively infeasible even at the job's minimum size.
          Monotone under claims exactly like {!No_fit}, with the memo
          key at [Trace.Job.min_size]. *)
  | Sized_gave_up
      (** A search budget ran out somewhere along the failing path;
          feasibility at the minimum is unknown — never cached. *)

(** Verdict of {!type-t.try_resize}. *)
type resize_verdict =
  | Resized of Fattree.Alloc.t
      (** A {e replacement} allocation at the target size.  The caller
          owns the swap: release the current allocation, then claim the
          replacement.  Shrinks keep every cable and drop failed nodes
          first; partition-native grows only extend onto free nodes of
          leaves whose uplinks the job already owns, so isolation is
          preserved by construction. *)
  | No_resize
      (** The target size is not reachable: not enough healthy nodes to
          keep (shrink), no room to grow, or the current allocation
          holds failed resources that a swap could not legally
          re-claim. *)

type t = {
  name : string;
  isolating : bool;
      (** Whether jobs run at their isolated (sped-up) runtime under the
          active performance scenario.  True for every scheme except
          Baseline. *)
  budgeted : bool;
      (** Whether a failing probe may burn a large search budget before
          giving up (LC/LC+S).  Selects the simulator's reservation
          search: fewest probes (drained machine, then galloping)
          for budgeted allocators, fewest state rebuilds (forward walk)
          for the cheap definitive ones.  Both orders find the same
          reservation while no probe gives up; see
          {!Simulator.reservation}. *)
  probe_sized : Fattree.State.t -> Trace.Job.t -> sized_verdict;
      (** Size-negotiating probe; pure — it must not mutate the state.
          Rigid jobs get the scheme's {!type-verdict} at their size
          ([granted = size]); moldable jobs are probed at their
          preference first, then (on failure) at their minimum — whose
          definitive failure alone justifies [Sized_no_fit] — and
          finally the largest feasible size in between is
          binary-searched. *)
  try_resize :
    Fattree.State.t ->
    Trace.Job.t ->
    current:Fattree.Alloc.t ->
    target:int ->
    resize_verdict;
      (** Propose a replacement for [current] (which must be claimed in
          the state) at [target] nodes.  Shrinks are in-place for every
          scheme and refuse ([No_resize]) an allocation holding a failed
          cable, which the simulator's shrink recovery relies on.  Grows
          are native for the partition schemes (Jigsaw/LC/LC+S: within
          the partition's own cables, never migrating) and derived for
          the rest (re-probe at the target size, which may relocate the
          job).  The derived grow briefly releases [current] on the live
          state and restores it before returning — observable only
          through the state's operation counters. *)
}

val make :
  name:string ->
  isolating:bool ->
  ?budgeted:bool ->
  ?try_resize:
    (Fattree.State.t ->
    Trace.Job.t ->
    current:Fattree.Alloc.t ->
    target:int ->
    resize_verdict) ->
  (Fattree.State.t -> Trace.Job.t -> verdict) ->
  t
(** [make ~name ~isolating probe] derives [probe_sized]
    (preference/minimum/binary-search molding) and — unless a native one
    is supplied — [try_resize] from a pure per-size [probe], so a new
    scheme gets the full sized API for free.  On rigid jobs
    [probe_sized] is [probe] with the granted size attached — a qcheck
    law over arbitrary probe functions. *)

val baseline : t
(** Traditional unconstrained scheduling (nodes only, links shared). *)

val jigsaw : t
(** This paper's scheduler: isolated full-bandwidth partitions. *)

val laas : t
(** Links as a Service: whole-leaf isolated partitions (padded). *)

val ta : t
(** Topology-aware node rules (implicit link reservation, padded). *)

val lcs : ?budget:int -> unit -> t
(** Least-constrained + link sharing, the theoretical bound: searches the
    full §3.2 condition space at each job's fractional bandwidth demand
    ([Job.bw_class]).  [budget] stands in for the paper's 5 s timeout. *)

val lc_exclusive : ?budget:int -> unit -> t
(** Least-constrained {e without} link sharing: the maximally permissive
    exclusive scheduler of paper section 4's discussion.  Not part of the
    paper's evaluation line-up — it exists to reproduce the claim that
    permitting every legal placement {e lowers} utilization versus
    Jigsaw's restriction (the fragmentation ablation in bench). *)

val all : t list
(** Baseline, LC+S, Jigsaw, LaaS, TA — Figure 6's legend order. *)

val isolating : t list
(** TA, LaaS, Jigsaw — the existing-vs-new comparison of Table 2. *)

val valid_names : string list
(** Every name {!by_name} accepts: the five [all] schemes plus ["LC"]. *)

val by_name : string -> (t, string) result
(** Resolve a scheme by its exact display name.  The error message lists
    the valid names — the one scheme-name resolver behind the CLI, the
    sweep cell parser and checkpoint restore. *)

val of_cli : string -> (t list, string) result
(** {!by_name} plus the CLI's ["all"] spelling (the full [all] list). *)
