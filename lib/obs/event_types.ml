(* The trace event types, declared once: [Event] includes them, and its
   interface re-exports them with [include module type of]. *)

type probe_outcome =
  | Fit  (** The allocator proposed a claimable allocation. *)
  | Infeasible  (** Definitive no-fit on the current state. *)
  | Exhausted  (** Budgeted search gave up (LC/LC+S). *)
  | Memo_hit  (** Skipped: the no-fit memo already had this job class. *)

type ctx = Head | Backfill

type run_meta = {
  trace : string;
  scheme : string;
  scenario : string;
  radix : int;
  nodes : int;
  jobs : int;
}

type arrival = { job : int; size : int }

type pass_start = { pending : int  (** Live queue depth. *) }

type pass_end = { started : int  (** Jobs started during the pass. *) }

type attempt = {
  job : int;
  ctx : ctx;
  outcome : probe_outcome;
  nodes : int;
  leaf_cables : int;
  l2_cables : int;
}
(** Resource counts are those of the proposed allocation ([Fit]) or
    zero. *)

type start = {
  job : int;
  ctx : ctx;  (** Serialized as [start] vs [backfill_start]. *)
  nodes : int;
  leaf_cables : int;
  l2_cables : int;
  est_end : float;
  attempt : int;  (** 0 for the first run, +1 per requeue. *)
}

type reservation_set = {
  job : int;
  at : float;  (** Estimated start instant of the blocked head. *)
  nodes : int;
  leaf_cables : int;
  l2_cables : int;
}

type job_only = { job : int }

type complete = { job : int; started : float; waited : float }
(** [waited]: start minus original submission. *)

type fail = {
  target : string;  (** Component kind, e.g. ["node"], ["leaf"]. *)
  id : int;
  nodes : int;  (** Blast radius: resources covered by the fault. *)
  leaf_cables : int;
  l2_cables : int;
}

type repair = { target : string; id : int }

type kill = { job : int; attempt : int; lost : float }
(** [lost]: node-seconds of the killed attempt. *)

type requeue = { job : int; attempt : int; resume_at : float }

type abandon = { job : int; attempt : int }

type resize = { job : int; from_size : int; to_size : int; new_end : float }

type shrink_recover = {
  job : int;
  attempt : int;
  from_size : int;
  to_size : int;
}

type net_route = {
  job : int;
  retract : bool;
      (** false: flows installed at start (serialized [net_route]);
          true: flows retracted at completion/kill ([net_retract]). *)
  flows : int;  (** Flows routed for the job. *)
  channels : int;  (** Distinct channels the job occupies. *)
  interfered : int;
      (** Of the job's flows, how many share a channel with another
          job at event time (for retracts: just before removal). *)
}

type net_congestion_sample = {
  max_load : int;  (** Largest per-channel flow count right now. *)
  shared : int;  (** Channels carrying >= 2 jobs. *)
  interfered : int;  (** Flows sharing a channel with another job. *)
  total_flows : int;
  lower_bound : int;
      (** Routing-independent pigeonhole bound on [max_load]
          ({!Greedy.lower_bound_load} of the installed flows). *)
}

type payload =
  | Run_meta of run_meta
      (** First event of every run; delimits runs when several are
          appended to one file (e.g. [jigsaw-sim --sched all]). *)
  | Arrival of arrival
  | Pass_start of pass_start
  | Pass_end of pass_end
  | Attempt of attempt  (** One allocation probe against the live state. *)
  | Start of start
  | Reservation_set of reservation_set
  | Reservation_clear of job_only
  | Complete of complete
  | Reject of job_only
  | Fail of fail
  | Repair of repair
  | Kill of kill
  | Requeue of requeue
  | Abandon of abandon
  | Resize of resize
      (** A running moldable job's grant changed in place — an idle-time
          grow or an accepted online resize.  [new_end] is the scheduler's
          new estimated completion after compressing the remaining work
          onto [to_size] nodes. *)
  | Shrink_recover of shrink_recover
      (** Fault recovery by molding: the job lost [from_size - to_size]
          nodes to a fault and kept running on the survivors — no kill,
          no lost work ([resilience.shrink]). *)
  | Net_route of net_route
      (** Emitted by [--net-telemetry] when a job's synthetic flow set
          is (un)installed.  All values are logical routing results —
          deterministic per (workload, scheme, seeds). *)
  | Net_congestion_sample of net_congestion_sample
      (** Cluster-wide congestion snapshot, emitted after every
          [Net_route]/[net_retract] transition. *)

type t = { time : float; payload : payload }
