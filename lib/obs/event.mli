(** Structured trace events: every observable state transition of a
    simulation run, as typed records.

    Events carry {e simulated} time and logical payloads only — never
    wall-clock measurements — so the event stream of a run is a pure
    function of (workload, scheme, seeds): two runs with the same inputs
    produce byte-identical traces, and a trace diff is a behaviour diff.
    Wall-clock profiling lives in {!Prof}, outside the trace.

    Serialization formats (one event per line, both lossless):
    - JSONL: [{"t":…,"ev":"…", …}] with per-kind fields;
    - CSV: one fixed 11-column row
      ([time,event,job,ctx,outcome,target,nodes,leaf_cables,l2_cables,a,b]),
      derived from the JSON fields: one table in event.ml names, per
      kind, the JSON field each generic cell carries, and decoding
      rebuilds the field list and reuses the JSON decoder. *)

type probe_outcome =
  | Fit  (** The allocator proposed a claimable allocation. *)
  | Infeasible  (** Definitive no-fit on the current state. *)
  | Exhausted  (** Budgeted search gave up (LC/LC+S). *)
  | Memo_hit  (** Skipped: the no-fit memo already had this job class. *)

type ctx = Head | Backfill

type payload =
  | Run_meta of {
      trace : string;
      scheme : string;
      scenario : string;
      radix : int;
      nodes : int;
      jobs : int;
    }
      (** First event of every run; delimits runs when several are
          appended to one file (e.g. [jigsaw-sim --sched all]). *)
  | Arrival of { job : int; size : int }
  | Pass_start of { pending : int }  (** [pending]: live queue depth. *)
  | Pass_end of { started : int }  (** Jobs started during the pass. *)
  | Attempt of {
      job : int;
      ctx : ctx;
      outcome : probe_outcome;
      nodes : int;
      leaf_cables : int;
      l2_cables : int;
    }
      (** One allocation probe against the live state; resource counts
          are those of the proposed allocation ([Fit]) or zero. *)
  | Start of {
      job : int;
      ctx : ctx;  (** Serialized as [start] vs [backfill_start]. *)
      nodes : int;
      leaf_cables : int;
      l2_cables : int;
      est_end : float;
      attempt : int;  (** 0 for the first run, +1 per requeue. *)
    }
  | Reservation_set of {
      job : int;
      at : float;  (** Estimated start instant of the blocked head. *)
      nodes : int;
      leaf_cables : int;
      l2_cables : int;
    }
  | Reservation_clear of { job : int }
  | Complete of { job : int; started : float; waited : float }
      (** [waited]: start minus original submission. *)
  | Reject of { job : int }
  | Fail of {
      target : string;  (** Component kind, e.g. ["node"], ["leaf"]. *)
      id : int;
      nodes : int;  (** Blast radius: resources covered by the fault. *)
      leaf_cables : int;
      l2_cables : int;
    }
  | Repair of { target : string; id : int }
  | Kill of { job : int; attempt : int; lost : float }
      (** [lost]: node-seconds of the killed attempt. *)
  | Requeue of { job : int; attempt : int; resume_at : float }
  | Abandon of { job : int; attempt : int }
  | Resize of { job : int; from_size : int; to_size : int; new_end : float }
      (** A running moldable job's grant changed in place — an idle-time
          grow or an accepted online resize.  [new_end] is the scheduler's
          new estimated completion after compressing the remaining work
          onto [to_size] nodes. *)
  | Shrink_recover of {
      job : int;
      attempt : int;
      from_size : int;
      to_size : int;
    }
      (** Fault recovery by molding: the job lost [from_size - to_size]
          nodes to a fault and kept running on the survivors — no kill,
          no lost work ([resilience.shrink]). *)
  | Net_route of {
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
      (** Emitted by [--net-telemetry] when a job's synthetic flow set
          is (un)installed.  All values are logical routing results —
          deterministic per (workload, scheme, seeds). *)
  | Net_congestion_sample of {
      max_load : int;  (** Largest per-channel flow count right now. *)
      shared : int;  (** Channels carrying >= 2 jobs. *)
      interfered : int;  (** Flows sharing a channel with another job. *)
      total_flows : int;
      lower_bound : int;
          (** Routing-independent pigeonhole bound on [max_load]
              ({!Greedy.lower_bound_load} of the installed flows). *)
    }
      (** Cluster-wide congestion snapshot, emitted after every
          [Net_route]/[net_retract] transition. *)

type t = { time : float; payload : payload }

val kind_name : payload -> string
(** The serialized event name ([Start] maps to ["start"] or
    ["backfill_start"] by its context). *)

val outcome_name : probe_outcome -> string
val ctx_name : ctx -> string

(** {1 Serialization} — [of_x (to_x e) = e] for every event. *)

val to_jsonl : Buffer.t -> t -> unit
(** Append one JSON line (newline included). *)

val of_jsonl : string -> t
(** Parse one JSON line.  Raises {!Json.Parse_error}. *)

val csv_header : string

val to_csv : Buffer.t -> t -> unit
(** Append one CSV row (newline included). *)

val of_csv : string -> t
(** Parse one CSV row (not the header).  Raises {!Json.Parse_error}. *)

val pp : Format.formatter -> t -> unit
(** Debug printing (the JSON form). *)
