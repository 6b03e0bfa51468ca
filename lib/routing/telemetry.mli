(** Network telemetry: measured per-channel congestion and cross-job
    interference, maintained live during simulation.

    On every job start the job's synthetic flow set (all-to-all or ring
    over its allocated nodes) is routed under a pluggable policy and
    installed into a persistent {!Congestion.Index}; on completion or
    kill the flows are retracted.  Both operations cost time
    proportional to the changed job's hops — no global re-solve — so
    congestion counters (max channel load per tier, shared channels,
    interfered flows, the pigeonhole lower bound of
    {!Greedy.lower_bound_load}) are exact at every instant.

    Determinism rules (DESIGN.md §15): routing is a {e pure function of
    (policy, topology, allocation)} — the [Greedy] policy routes each
    job's flows over fresh loads (per-job scoped, not cross-job-global,
    which would make paths depend on departed jobs' history), and the
    [Jigsaw] policy is {!Partition_routing.route} over the flat
    allocation.  Checkpoint restore therefore rebuilds the whole index
    by re-routing the running set, in any order, to the same state. *)

(** How flows are mapped to channels. *)
type policy =
  | Dmodk  (** Static destination-mod-k — the ECMP-style default. *)
  | Greedy
      (** Load-aware least-loaded minimal path, scoped to the job's own
          flows (see determinism rules above). *)
  | Jigsaw
      (** Jigsaw's adjusted D-mod-k (paper Figure 5): the
          destination-based routing {!Fwd} compiles into forwarding
          tables, over the allocation's own cables.  Flows it cannot
          carry fall back to D-mod-k (Baseline allocations hold no
          cables and route fully D-mod-k). *)

val policy_name : policy -> string
val policy_of_name : string -> policy option

(** Synthetic traffic shape over a job's allocated nodes (the [size]
    lowest held node ids, sorted). *)
type shape =
  | Alltoall  (** Every ordered pair — k(k-1) flows for k nodes. *)
  | Ring  (** node i -> node (i+1) mod k. *)

val shape_name : shape -> string
val shape_of_name : string -> shape option

type t

val create :
  Fattree.Topology.t -> policy:policy -> shape:shape -> now:float -> t
(** An empty telemetry state; [now] anchors the time-weighted series. *)

(** What one add/remove did, for the [Net_route] trace event. *)
type route_info = {
  ri_flows : int;  (** Flows routed for the job. *)
  ri_channels : int;  (** Distinct channels the job occupies. *)
  ri_interfered : int;
      (** Of the job's flows, how many share a channel with another
          job (at event time — for removals, just before retraction). *)
}

val add_job : t -> now:float -> Fattree.Alloc.t -> route_info
(** Route and install a starting job's flows. *)

val remove_job : t -> now:float -> int -> route_info
(** Retract a completed/killed job's flows; every counter returns to
    its value as if the job had never run. *)

(** Instantaneous congestion state, for [Net_congestion_sample]. *)
type sample = {
  s_max_load : int;
  s_leaf_max : int;
  s_l2_max : int;
  s_shared : int;
  s_interfered : int;
  s_total_flows : int;
  s_jobs : int;
  s_lower_bound : int;
      (** {!Greedy.lower_bound_load} of the currently installed flows,
          maintained incrementally. *)
}

val sample : t -> sample

(** Whole-run aggregate, printed by [jigsaw-sim] and embedded in bench
    JSON.  Covers the observed window only: after a checkpoint restore
    the series restarts from the running set (state is rebuilt, history
    is not replayed). *)
type summary = {
  sm_policy : policy;
  sm_shape : shape;
  sm_routed_jobs : int;
  sm_routed_flows : int;
  sm_peak_max_load : int;
  sm_mean_max_load : float;  (** Time-weighted over the run. *)
  sm_peak_leaf : int;
  sm_peak_l2 : int;
  sm_peak_shared : int;
  sm_peak_interfered : int;
  sm_peak_lower_bound : int;
  sm_interfered_fraction : float;
      (** Time-weighted interfered flows over time-weighted total
          flows — the fraction of flow-seconds spent interfered. *)
  sm_elapsed : float;
}

val summary : t -> now:float -> summary
val pp_summary : Format.formatter -> summary -> unit
