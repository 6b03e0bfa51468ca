(** The daemon's replayable state machine.

    Wraps a live {!Sched.Simulator} so that the whole state is a pure
    function of [(params, applied WAL entries)]:

    - {!admit} performs every fallible check {e before} anything is
      logged, against state only ops can change — so its verdict still
      holds when {!apply} runs after the WAL append;
    - {!apply} is infallible for admitted ops and identical on the live
      path and on replay ([run_until stamp; op; run_until stamp], the
      second slice draining same-instant scheduling passes so the state
      stays checkpoint-able between entries);
    - {!fields_of_op}/{!op_of_fields} are the WAL encoding, exact dual
      of each other. *)

(** Simulation configuration ({!Sched.Simulator.params}), embedded in
    WAL segment headers and recovered from checkpoint snapshots; the
    daemon cross-checks the two sources at startup. *)
type params = Sched.Simulator.params = {
  scheme : string;
  radix : int;
  scenario : string;
  scenario_seed : int;
  backfill_window : int;
  backfill : bool;
  resilience : Sched.Simulator.resilience;
  trace_name : string;
  system_nodes : int;
}

val params_to_fields : params -> (string * Obs.Json.value) list
(** The WAL segment header's encoding. *)

val params_of_fields : (string * Obs.Json.value) list -> (params, string) result

type t

val create :
  ?sink:Obs.Sink.t -> ?prof:Obs.Prof.t -> params -> (t, string) result
(** Fresh state: an empty workload on the configured cluster, clock 0.
    [Error] on params {!Sched.Simulator.resolve} rejects. *)

val of_checkpoint :
  ?sink:Obs.Sink.t ->
  ?prof:Obs.Prof.t ->
  path:string ->
  unit ->
  (t, string) result
(** Restore from a daemon checkpoint ({!checkpoint}); {!last_seq} comes
    back as the [x_svc_seq] header field.  [Error] on corruption, a
    non-daemon checkpoint, or an unknown scheme/scenario. *)

val checkpoint : t -> path:string -> bool
(** Atomic, durable snapshot + last applied sequence number.  [false]
    (and no file) once drained — the WAL'd drain op re-derives the
    result on replay.  Carries the ["ckpt-post-save"] crash point. *)

val snapshot : t -> Sched.Simulator.Snapshot.t
(** The live simulation's snapshot, as {!checkpoint} takes it. *)

val checkpoint_meta : t -> (string * Obs.Json.value) list
(** The header fields {!checkpoint} adds to the snapshot's. *)

val checkpoint_rows : t -> (string * (int * int)) list
(** {!Sched.Checkpoint.rows} of the last {!checkpoint}: per record kind,
    rows encoded afresh and rows copied from the checkpoint before. *)

val params : t -> params
(** Read off the live simulation, so names are canonical (["10%"] for a
    scenario created as ["10"]). *)

val now : t -> float

val last_seq : t -> int
(** Sequence number of the last applied WAL entry; [-1] if none. *)

val fingerprint : t -> string option
(** The run's {!Sched.Metrics.fingerprint} once drained. *)

(** {1 Ops} *)

type op =
  | Submit of Trace.Job.t  (** Arrival = the op's stamp. *)
  | Cancel of int
  | Resize of int * int
      (** Job id, requested granted size.  Journaled even when the
          engine refuses (rigid job, out of range, no room): the verdict
          depends on apply-time state, is deterministic given it, and so
          replays identically. *)
  | Fault of Trace.Faults.event  (** Time = the op's stamp. *)
  | Drain

val admit : t -> stamp:float -> Protocol.request -> (op, string) result
(** Validate a request against current state and resolve it to a
    concrete op (assigning the next job id to an id-less submit).
    [stamp] must already be clamped to [>= now].  [Error] messages are
    client-facing ([Protocol.Invalid]). *)

val fields_of_op :
  stamp:float -> rid:string option -> op -> (string * Obs.Json.value) list

val op_of_fields :
  (string * Obs.Json.value) list -> (float * string option * op, string) result

val apply :
  t ->
  seq:int ->
  rid:string option ->
  stamp:float ->
  op ->
  (string * Obs.Json.value) list
(** Execute an admitted (or replayed) op; returns the reply's extra
    fields.  Records [rid] for duplicate suppression and advances
    {!last_seq}.  Raises [Failure] only if the op is rejected by the
    engine — WAL/state divergence, i.e. corruption. *)

val apply_entry :
  t -> Wal.entry -> ((string * Obs.Json.value) list, string) result
(** Decode + {!apply} one WAL entry (the replay path). *)

val advance : t -> float -> unit
(** [run_until (max upto now)].  Deliberately {e not} journaled: event
    effects never read the clock horizon, so idle advances are invisible
    to replay — op stamps alone reproduce the timeline. *)

val status : t -> (string * Obs.Json.value) list
(** Read-only counters for the [status] reply. *)

(** {1 Duplicate suppression} *)

val find_rid : t -> string -> int option
(** The WAL sequence number that first carried this request id, if any —
    a retried request is acked again without re-applying. *)

val note_rid : t -> string -> int -> unit
(** Seed the rid table during recovery (entries at or below the
    checkpoint's [x_svc_seq] are scanned, not re-applied). *)
