(** Trace-driven scheduling simulation with EASY backfilling (paper
    §5.3).

    The simulator replays a job-queue trace against a fat-tree cluster
    under one placement policy:

    - jobs are queued FIFO on arrival;
    - whenever resources change, queued jobs are started from the head
      while allocations succeed;
    - if the head cannot start, it receives a {e reservation} — the
      earliest simulated completion time at which an allocation for it
      exists (computed against a scratch copy of the state that replays
      pending completions) — and up to [backfill_window] later jobs may
      start now, provided each either finishes by the reservation time
      or touches none of the reserved resources (EASY [Skovira et al.
      1996]);
    - isolating schedulers run each job for its scenario-adjusted
      isolated runtime; Baseline runs the trace runtime.

    Claims and releases go through [Fattree.State], so any isolation bug
    in an allocator aborts the simulation instead of skewing results.

    A fault trace ([config.faults]) injects fail/repair events for
    nodes, cables and whole switches.  Failed resources are withdrawn
    from the state's availability summaries, so every allocator avoids
    them through its normal probe paths; a fault landing on a running
    job's partition kills the attempt, and the [resilience] policy
    decides whether the job is resubmitted or abandoned.  Repairs
    invalidate the no-fit memo exactly like releases do. *)

(** Per-job failure-resilience policy. *)
type resilience = {
  requeue : bool;  (** Resubmit killed jobs (else: abandon on first kill). *)
  resubmit_delay : float;
      (** Simulated time between the kill and the re-arrival. *)
  max_retries : int;  (** Kills tolerated before the job is abandoned. *)
  charge_lost_work : bool;
      (** [true]: every killed attempt's node-seconds count into
          [Metrics.lost_node_time]; [false]: only abandoning kills. *)
  shrink : bool;
      (** Recover moldable victims by molding instead of killing: a
          running moldable job that lost only nodes (no cables) to a
          fault and can still meet its [min_size] is shrunk in place via
          the allocator's [try_resize] — the failed nodes' share is
          retracted, the remaining work is compressed onto the
          survivors, and nothing counts as interrupted, requeued or
          lost.  Jobs the shrink cannot save (cable hit, below minimum,
          rigid) fall back to the ordinary kill/requeue path.  Inert on
          rigid traces: fingerprints are bit-identical with it on or
          off. *)
}

val no_resilience : resilience
(** No requeue, zero delay, zero retries, charge everything, no shrink
    recovery. *)

type config = private {
  allocator : Allocator.t;
  radix : int;  (** Cluster: maximal fat-tree of this switch radix. *)
  scenario : Trace.Scenario.t;
  scenario_seed : int;
  backfill_window : int;  (** Paper uses 50. *)
  backfill : bool;
      (** [false] disables EASY entirely (plain FIFO) — the mode the LaaS
          simulator originally shipped with (paper section 5.3); used by
          the backfilling ablation. *)
  faults : Trace.Faults.t;  (** [Trace.Faults.none] for a healthy machine. *)
  resilience : resilience;
  sink : Obs.Sink.t;
      (** Trace destination.  Events carry simulated time and logical
          payloads only, so a trace is a pure function of (workload,
          scheme, seeds); with {!Obs.Sink.null} every emission site is a
          flag test and metrics are bit-identical to an untraced run. *)
  prof : Obs.Prof.t option;
      (** Wall-clock profiling registry ([None]: no profiling).  Spans
          wrap the probe and reservation searches {e outside} the
          [sched_time] clock, so profiling never pollutes the reported
          scheduling cost. *)
  net : (Routing.Telemetry.policy * Routing.Telemetry.shape) option;
      (** Network telemetry ([None]: off, zero cost beyond a branch per
          job event).  When set, every job start routes a synthetic flow
          set for the allocation under the policy and every
          completion/kill retracts it, maintaining incremental
          per-channel loads and emitting [Net_route] /
          [Net_congestion_sample] trace events.  A pure observer: it
          never feeds back into scheduling, and {!Metrics.fingerprint}
          is unchanged whether it is on or off. *)
}
(** Private: construct with {!Config.make} and update with the
    [Config.with_*] functions, so new fields never break construction
    sites again.  Field {e reads} are unrestricted. *)

(** A run's identity: its configuration by name, without the observers
    (sink, profiling, telemetry) or the fault trace — what a checkpoint
    and the daemon's WAL record.  {!resolve} turns it into a {!config};
    {!params} reads it back off a live simulation, with canonical names
    ({!Allocator.t.name}, {!Trace.Scenario.name}). *)
type params = {
  scheme : string;  (** An {!Allocator.by_name} name. *)
  radix : int;
  scenario : string;  (** A {!Trace.Scenario.of_name} spelling. *)
  scenario_seed : int;
  backfill_window : int;
  backfill : bool;
  resilience : resilience;
  trace_name : string;
  system_nodes : int;
}

(** Builder for {!config}. *)
module Config : sig
  type t = config

  val make :
    ?scenario:Trace.Scenario.t ->
    ?scenario_seed:int ->
    ?backfill_window:int ->
    ?backfill:bool ->
    ?faults:Trace.Faults.t ->
    ?resilience:resilience ->
    ?sink:Obs.Sink.t ->
    ?prof:Obs.Prof.t ->
    ?net:Routing.Telemetry.policy * Routing.Telemetry.shape ->
    radix:int ->
    Allocator.t ->
    t
  (** Defaults: scenario [No_speedup], seed 1, window 50, backfilling
      on, no faults, {!no_resilience}, null sink, no profiling, no
      network telemetry. *)

  val with_scenario : Trace.Scenario.t -> t -> t
  val with_backfill_window : int -> t -> t
  val with_backfill : bool -> t -> t
  val with_sink : Obs.Sink.t -> t -> t
  val with_prof : Obs.Prof.t option -> t -> t
end

type arenas
(** The reservation search's probe states over one live state: a
    scratch arena and the fully drained machine.  The simulator keeps
    one per run, so caches warmed in the drained arena survive from
    one search to the next. *)

val arenas : Fattree.State.t -> arenas
(** [arenas live] is an empty pair over [live]; each arena is created
    on its first use. *)

val reservation :
  ?prof:Obs.Prof.t ->
  Allocator.t ->
  arenas ->
  running:(float * Fattree.Alloc.t) list ->
  job:Trace.Job.t ->
  (float * Fattree.Alloc.t) option
(** [reservation alloc ar ~running ~job] is the earliest estimated
    completion time at which [job] could be placed on [ar]'s live
    state, with the concrete allocation it would receive then, or
    [None] if the job does not fit even on the fully drained machine.
    [running] pairs {e every} allocation claimed on the live state with
    its estimated end time.

    Completions sharing an end time form one group, freed together;
    with the g groups in end-time order, prefix k is the live state
    with groups 0..k released.  The probe
    sequence follows the allocator's cost model:
    - cheap definitive probes walk forward, probing prefix 0, 1, …
      and answering with the first fit;
    - budgeted searches (LC/LC+S), whose failing probes burn their
      whole budget, probe the drained prefix g-1 first ([None] on no
      fit), then gallop: prefixes 0, 1, 3, 7, …, the last clamped to
      g-2, until one fits (none fits: the drained prefix is the
      answer), then bisect between the last miss and that first fit,
      keeping the lower half on a fit.  When no probe gives up,
      feasibility is monotone in the prefix and the answer equals the
      forward walk's.  A probe that gives up counts as no fit, so
      budgeted feasibility is then {e not} monotone and the answer is
      defined by this exact sequence.

    With [prof], every probe of either sequence increments the counter
    [sched/reservation_probes] (the [JIGSAW_VALIDATE=1] cross-check
    below is not counted).

    Arena contract: every probe sees a state observably equal to a
    fresh copy of the live state with its prefix released, so verdicts
    are those of the copy-per-probe search.  One call refreshes the
    scratch arena once and moves it between probed prefixes —
    forward by {!Fattree.State.release}, backward by
    {!Fattree.State.unrelease} — so its caches stay warm within the
    call.  The drained arena depends only on the live state's fault
    overlay; it is rebuilt whenever the live fail/repair tallies have
    moved since it was built and is otherwise reused, caches and all.
    Under [JIGSAW_VALIDATE=1] each reuse is cross-checked against a
    freshly drained copy and a mismatch fails the run.  Exposed for
    the equivalence tests against the copy-per-probe references. *)

val run : config -> Trace.Workload.t -> Metrics.t
(** Simulates the whole trace and gathers every metric.  Jobs that can
    never be placed on an empty cluster under the policy (e.g. requests
    whose LaaS padding exceeds the machine) are counted as [rejected]
    and skipped.  Under faults, infeasibility against the {e degraded}
    machine is only definitive when no repair event remains; otherwise
    the head stays blocked and the reservation is retried when a repair
    lands.  Jobs still queued when the event stream drains are reported
    as [Metrics.stuck_pending]. *)

(** Per-job records, for tests and custom analyses. *)
val run_detailed : config -> Trace.Workload.t -> Metrics.t * Metrics.per_job list

(** {1 Incremental runs and checkpointing}

    [run cfg w] is [finish (start cfg w)]; the split entry points let a
    caller advance simulated time in slices and snapshot between slices.
    The contract: [checkpoint → restore → finish] produces a
    bit-identical {!Metrics.fingerprint} to an uninterrupted same-seed
    run. *)

type t
(** A live simulation: cluster state, event heap, queues, memos and
    in-progress metric accumulators. *)

val start : config -> Trace.Workload.t -> t
(** Build the simulation and schedule every arrival and fault event;
    nothing has executed yet. *)

val now : t -> float
(** Current simulated time. *)

val is_finished : t -> bool
(** No pending events: {!finish} will compute metrics without advancing
    time. *)

val run_until : t -> float -> unit
(** Execute every event at or before the horizon, then advance the clock
    to it.  Afterwards no scheduling pass is in flight, so the state is
    {!snapshot}-able. *)

val finish : t -> Metrics.t * Metrics.per_job list
(** Run the remaining events and compute the metrics (flushing the sink
    and importing the end-of-run profile counters, as {!run} does). *)

(** {1 Online operations}

    The daemon's write surface: mutate a live simulation between
    {!run_until} slices.  Each call only {e schedules} engine events;
    follow up with [run_until] to the operation's time so it executes
    and any same-instant scheduling pass drains, keeping the state
    {!snapshot}-able.  All three are deterministic functions of the
    current state and their arguments, so replaying the same calls with
    the same times reproduces the run bit-identically — the property the
    service layer's write-ahead log relies on. *)

val submit : t -> Trace.Job.t -> (unit, string) result
(** Accept a job after {!start}: schedules its arrival at
    [j.arrival].  [Error] on a duplicate id or an arrival before the
    current clock. *)

type cancel_outcome = Cancelled | Not_pending | Unknown_job

val cancel : t -> int -> cancel_outcome
(** Withdraw a job from the pending queue (clearing its reservation if
    it holds one).  [Not_pending] if the job is running, finished,
    rejected, abandoned or not yet arrived — a cancel never kills a
    running allocation. *)

type resize_outcome =
  | Resized_to of int  (** The new granted size (echoes the request). *)
  | Resize_refused of string
      (** Why not: unknown/not-running/rigid job, size outside the
          declared range, or no feasible allocation at the target.  A
          legitimate reply, not an error — the caller's request was
          well-formed, the cluster just cannot honour it. *)

val resize : t -> int -> size:int -> resize_outcome
(** Resize a {e running} moldable job to an explicit size within its
    declared [min_size, max_size] range, through the allocator's
    [try_resize] (in-place shrink for every scheme; partition-native or
    re-probing grow).  Applies immediately at the current clock and
    requests a scheduling pass (a shrink frees nodes the queue may
    want).  Deterministic, like the other online operations, so WAL
    replay reproduces the outcome. *)

val inject_fault : t -> Trace.Faults.event -> (unit, string) result
(** Append a fail/repair event to the live fault history and schedule
    it.  [Error] on a time before the clock or an out-of-range target.
    The caller is responsible for fail/repair pairing: a repair of a
    never-failed target raises when the event {e executes}. *)

val pending_count : t -> int
val running_count : t -> int
val finished_count : t -> int
val cancelled_count : t -> int
val rejected_count : t -> int
val known_job : t -> int -> bool
val max_job_id : t -> int
(** [-1] when the simulation knows no jobs. *)

val fault_log : t -> Trace.Faults.event array
(** Static trace followed by dynamically injected events, in injection
    order — index [i] is the fault that the event [Fault i] runs.  Do
    not mutate it. *)

val net_summary : t -> Routing.Telemetry.summary option
(** Telemetry summary up to the current clock ([None] when telemetry is
    off).  Kept out of {!Metrics.t} on purpose: fingerprints must not
    depend on whether telemetry ran. *)

(** What the simulation's engine queues: plain data, so a snapshot
    holds the pending queue as it is. *)
type event =
  | Arrive of int  (** The job with this id (re-)enters the queue. *)
  | Complete of { job : int; attempt : int; epoch : int }
      (** The job finishes — unless it was killed since ([attempt]
          moved on) or resized in place since ([epoch] moved on). *)
  | Fault of int  (** Index into {!fault_log}. *)
  | Pass  (** A scheduling pass; always runs at the instant it was
              requested, so never pending between {!run_until} slices. *)

val event_priority : event -> int
(** Same-instant order, lowest first: completions and faults (0), then
    arrivals (1), then the scheduling pass (2) — freed and withdrawn
    resources are visible to the jobs that arrive with them, and the
    pass sees every change of its instant. *)

val resolve :
  ?sink:Obs.Sink.t ->
  ?prof:Obs.Prof.t ->
  ?jobs:Trace.Job.t array ->
  params ->
  (config * Trace.Workload.t, string) result
(** The one place a scheme or scenario name is resolved: a healthy
    config ({!Config.make}'s defaults for the fields [params] lacks) and
    the workload of [jobs] (default none).  [Error] on an unknown scheme
    or scenario, a radix {!Fattree.Topology.of_radix} rejects, or a
    negative [system_nodes]. *)

val params : t -> params
(** The run's identity, read off the live simulation: names are the
    canonical ones, however they were spelled when resolved. *)

(** A serializable snapshot of a mid-flight simulation, taken between
    events.  Self-contained: carries the full workload and fault trace
    plus every piece of dynamic state, so restore needs no side files.
    It holds the records it carries — the running jobs' allocations and
    the cluster state's operation counters — as they are, not restated
    field by field.  The trace sink and profiling registry
    are {e not} captured — they are wall-clock observers, not
    simulation state; {!of_snapshot} accepts fresh ones. *)
module Snapshot : sig
  type nonrec event = { ev_time : float; ev_seq : int; ev : event }
  (** One pending engine event.  The exact sequence number preserves
      same-instant FIFO tie-breaking across the restore; the priority
      is {!event_priority}[ ev]. *)

  type running_job = {
    rs_alloc : Fattree.Alloc.t;
        (** What the job holds: its id ([job]), {e granted} size
            ([size]), nodes, cables and per-cable demand.  Shared with the
            live simulation, not copied — allocations are never mutated
            once made. *)
    rs_attempt : int;
    rs_epoch : int;
        (** In-place resizes applied to this attempt (0 before any);
            completion events carry the epoch they were scheduled under,
            so a superseded completion is dropped exactly like a stale
            attempt's. *)
    rs_start : float;
    rs_end : float;
    rs_est_end : float;
  }

  type finished_job = { fs_job : int; fs_start : float; fs_end : float }

  type t = {
    params : params;
    jobs : Trace.Job.t array;
    faults : Trace.Faults.event array;
    clock : float;
    steps : int;
    next_seq : int;
    events : event array;  (** Pending events in [seq] order. *)
    queue : (int * int) array;  (** [(id, stamp)], queue front first. *)
    pending_live : int array;  (** Ids in the pending table, ascending. *)
    pending_gens : (int * int) array;  (** [(id, stamp)], ascending id. *)
    running : running_job array;  (** Ascending job id. *)
    nofit : (int * float) array;  (** Memoized no-fit classes, ascending. *)
    nofit_release_gen : int;
    kills : (int * int) array;  (** [(id, kills)], ascending id. *)
    reserved : (int * float) option;
    acc : Accumulators.t;  (** A copy, never the live record. *)
    samples : (float * int * int * int * int) array;  (** Chronological. *)
    finished : finished_job array;  (** Completion order. *)
    counters : Fattree.State.counters;
        (** The cluster state's operation tallies, which restore writes
            back with {!Fattree.State.restore_counters} so generations
            and the end-of-run ["state/*"] profile counters match the
            uninterrupted run. *)
  }
end

val snapshot : t -> Snapshot.t
(** Capture the simulation between events.  Raises [Invalid_argument] if
    a scheduling pass is in flight — snapshot only after {!run_until}
    (which drains same-instant passes). *)

val of_snapshot :
  ?sink:Obs.Sink.t ->
  ?prof:Obs.Prof.t ->
  ?net:Routing.Telemetry.policy * Routing.Telemetry.shape ->
  Snapshot.t ->
  (t, string) result
(** Rebuild a live simulation from a snapshot: {!resolve} its params,
    replay the executed fault prefix against a fresh cluster state,
    re-claim the running allocations (bit-exact — demands
    are dyadic and live faults never intersect running jobs), restore
    the operation counters, and re-queue the pending events with their
    original sequence numbers.  [Error] on params {!resolve} rejects,
    an unknown job id (an [Arrive] included), a [Fault] index outside
    the fault log, a pending [Pass], or an inconsistent snapshot.
    The restored run's sink and profiling registry default to off;
    profile spans cover only the post-restore segment (wall-clock is not
    simulation state), while the end-of-run [state/*] and
    [engine/steps] counters still match the uninterrupted run.
    Telemetry state is likewise rebuilt, not restored: routing is a pure
    function of (policy, topology, allocation), so re-routing the
    running set reproduces the exact channel loads; the time-weighted
    summary covers only the observed post-restore window. *)
