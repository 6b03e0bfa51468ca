(** Trace analysis: fold a parsed run back into per-job timelines,
    queue statistics and a fault post-mortem.

    The analyzer sees only the trace — it never touches the simulator —
    so everything here doubles as a check that traces are
    self-describing. *)

type fate =
  | Completed
  | Abandoned  (** Killed and gave up after exhausting requeues. *)
  | Rejected  (** Larger than the cluster. *)
  | Stuck  (** Still pending (or running) when the trace ended. *)

type timeline = {
  id : int;
  size : int;
  submitted : float;
  starts : (float * Event.ctx) list;
      (** Chronological; several entries mean requeued attempts. *)
  kills : float list;
  completed : float option;
  fate : fate;
}

type fault_view = {
  f_time : float;
  f_target : string;
  f_id : int;
  f_nodes : int;  (** Blast radius in nodes. *)
  f_killed : int list;  (** Jobs this fault killed, in kill order. *)
}

type net_job = {
  nj_id : int;
  nj_flows : int;  (** Flows routed for the job (largest seen). *)
  nj_peak_interfered : int;
      (** Most of its flows ever observed sharing a channel with
          another job — the per-job interference attribution. *)
}

(** Interference post-mortem, folded from [Net_route] /
    [Net_congestion_sample] events of a [--net-telemetry] run. *)
type net_view = {
  nv_samples : int;
  nv_routes : int;
  nv_retracts : int;
  nv_peak_max_load : int;
  nv_peak_shared : int;
  nv_peak_interfered : int;
  nv_peak_lower_bound : int;
  nv_jobs : net_job list;  (** Sorted by job id; every routed job. *)
}

type t = {
  meta : Event.run_meta option;
  events : int;
  timelines : timeline list;  (** Sorted by job id. *)
  queue_depths : float array;  (** One sample per scheduling pass. *)
  waits : float array;
      (** Submit-to-start latency in {e simulated} seconds, one entry
          per start event — the allocation-latency distribution. *)
  attempts : (string * (Event.probe_outcome * int) list) list;
      (** Probe-outcome counts per context (["head"], ["backfill"]). *)
  faults : fault_view list;
  requeues : int;
  repairs : int;
  net : net_view option;  (** Present iff the run carried net events. *)
}

val of_run : Reader.run -> t

val pp_summary : ?timeline:bool -> Format.formatter -> t -> unit
(** The [jigsaw-trace] report: run header, job fates, queue-depth and
    wait percentiles, wait histogram, per-context attempt outcomes and
    the fault post-mortem.  [~timeline:true] appends one line per job. *)
