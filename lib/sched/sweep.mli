(** Parallel simulation sweeps: independent cells (trace x scheme x
    seed x fault-config) sharded across a {!Par.Pool} with a
    deterministic, submission-order merge.

    Each cell runs a complete {!Simulator.run} against its own cluster
    state, PRNG streams, memo tables and (optionally) its own
    {!Obs.Prof} registry — nothing mutable is shared between cells, so
    any domain count produces the same metrics fingerprints and, because
    profile registries merge in {e cell} order rather than domain order,
    the same merged profile (up to wall-clock span values, which no
    fingerprint includes).

    Cells always trace to {!Obs.Sink.null}: sinks buffer into channels,
    which are not shareable across domains.  Run trace-emitting
    simulations serially through {!Simulator.run} instead.

    Sweeps can journal to a {e manifest} — one flat JSON row per
    finished cell, keyed by the cell's stable {!cell_id} and verified by
    its stored metrics fingerprint — so an interrupted sweep resumes by
    re-running only the missing cells (see {!run}'s [manifest]). *)

type cell = {
  id : string;
      (** Stable identity — see {!cell_id}.  Computed by {!cell}; goes
          stale if fields are mutated by record update. *)
  label : string;  (** ["trace/scheme"] by default; shown by the CLI. *)
  cfg : Simulator.config;
      (** Everything the cell simulates with, observers included: its
          network telemetry ([cfg.net]) runs, while its sink and
          profiling registry are replaced — a cell traces to
          {!Obs.Sink.null} and profiles into a registry of its own when
          [profile] is set. *)
  workload : Trace.Workload.t;
  profile : bool;  (** Give the cell its own registry. *)
}

val cell_id : cell -> string
(** The cell's stable string identity,
    ["trace#njobs/scheme/scenario:s<seed>/<fault-tag>"] (plus
    [",bw<n>"] / [",fifo"] when the backfill axes differ from the
    defaults).  The fault tag is ["healthy"], or an 8-hex digest over
    the full fault event list and resilience policy.  It covers every
    axis that can change the metrics fingerprint and no axis that
    cannot (network telemetry, profiling and the label are left out),
    and is independent of grid position — manifests and fingerprint
    listings are indexed by it. *)

val cell :
  ?label:string -> ?profile:bool -> Simulator.config -> Trace.Workload.t -> cell
(** [cell cfg workload] runs [workload] under [cfg] (build it with
    {!Simulator.Config.make}).  [profile] defaults to [false].  The [id]
    field is filled in from the other fields. *)

type result = {
  metrics : Metrics.t;
  prof : Obs.Prof.t option;  (** The cell's registry, if it profiled. *)
  net : Routing.Telemetry.summary option;
      (** Telemetry summary, when the cell ran with [net] set.  Not
          journaled to manifests (fingerprints do not cover it), so
          restored cells report [None]. *)
  wall_s : float;  (** Wall-clock seconds for this cell alone. *)
  restored : bool;
      (** [true]: resurrected from a manifest row instead of re-run;
          [wall_s] is then the original run's. *)
}

val run_cell : cell -> result
(** One cell, on the calling domain. *)

exception Interrupted
(** Raised out of {!run} when [should_stop] turned true: no
    new cell was started after the flag, every cell already in flight
    finished and journaled its manifest row, and a re-run with the same
    [manifest] completes only the missing cells.  (The CLI maps this to
    exit code 130 on SIGINT/SIGTERM.) *)

val run :
  ?manifest:string ->
  ?should_stop:(unit -> bool) ->
  jobs:int ->
  cell array ->
  result array
(** [run ~jobs cells] shards the cells over a fresh pool of [jobs]
    domains ([jobs <= 1]: serial on the calling domain; [jobs = 0]:
    {!Par.Pool.default_jobs}); results are indexed like the input.
    [should_stop] is polled before each cell starts (from worker
    domains — it must be domain-safe, e.g. an [Atomic.t] read); once
    true, {!Interrupted} is raised after in-flight cells drain.

    With [manifest] (a file path): cells whose id already has a
    fingerprint-verified row in the file are returned from the manifest
    ([restored = true], including their profile registry) without
    re-running; every freshly finished cell is appended to the file the
    moment it completes (mutex-guarded, one complete line per row), so
    a killed sweep's manifest stays readable and a re-run with the same
    path picks up where it stopped.  Restored and fresh results are
    merged in cell order, so the output array — and any profile merged
    from it — is the one a from-scratch sweep produces.  Raises
    [Invalid_argument] if the file exists but is not a sweep
    manifest. *)

(** A loaded manifest: id-keyed verified rows plus the count of rows
    that were rejected (half-written, bit-flipped, or failing their
    fingerprint check).  Rejected rows are simply re-run. *)
type manifest = private { rows : (string * result) list; corrupt : int }

val load_manifest : string -> (manifest, string) Stdlib.result
(** Read a manifest tolerantly: unparseable or unverifiable rows are
    counted in [corrupt], not trusted.  [Error] on I/O failure or a
    missing/foreign header. *)

val merged_profile : result array -> Obs.Prof.t option
(** Merge every profiled cell's registry, in cell order, into a fresh
    registry owned by the calling domain.  [None] when no cell
    profiled. *)

val grid :
  ?profile:bool ->
  ?faults_for:(Trace.Presets.entry -> Trace.Faults.t) ->
  full:bool ->
  unit ->
  cell array
(** The full evaluation grid — the 9 presets of Table 1 (in [all]
    order) x the 5 schemes of [Allocator.all], 45 cells.  [faults_for]
    builds a per-entry fault trace (faults are topology-specific);
    default: healthy machines. *)
