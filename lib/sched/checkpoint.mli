(** Deterministic checkpoint files for mid-flight simulations.

    A checkpoint serializes a {!Simulator.Snapshot.t} to a versioned,
    self-describing file: a stream of flat JSON records (one per line,
    written with the existing [Obs.Json] writer — no new dependencies)
    opened by a [jigsaw-checkpoint] header carrying the format version
    and record counts, and closed by an integrity trailer holding the
    line count and the MD5 digest of every preceding byte.

    Guarantees:

    - {e crash-safe writes} — {!save} streams to ["<path>.tmp"] and
      renames over the target only once complete, so an interrupted
      checkpoint never clobbers a good one;
    - {e loud corruption errors} — {!load} verifies the trailer digest
      and line count before parsing a single record, so truncated or
      bit-flipped files produce an integrity [Error], never a silently
      wrong resume;
    - {e bit-exact resume} — every float crosses the file through an
      exact representation ([Obs.Json]'s round-trip printing, or [%h]
      hex floats inside packed strings), so
      [checkpoint → restore → finish] reproduces the uninterrupted
      run's {!Metrics.fingerprint} byte for byte.

    A save re-encodes only the rows that changed since the last save
    through the same {!memo}: a job or sample row is copied from that
    save's bytes when the snapshot holds the physically same value at
    the same index; a pending-event row when the last save wrote one
    with the same sequence number, the physically same event and a
    bit-equal time; a running or finished row when the last save wrote
    one for the same job id whose allocation is the physically same
    value, whose integers are equal and whose floats are equal bit for
    bit.  Every other row, and every row of a save through a fresh
    memo, is encoded afresh, so a file's bytes never depend on the
    memo.

    The record order is documented in DESIGN.md §12. *)

val version : int
(** Format version written by {!save}; {!load} rejects others. *)

(** Rows the daemon's WAL shares: the fault-recovery policy ("shrink"
    only when set), and a job's size range ("min"/"max" only for
    moldable jobs), which reads back as a function of the job's size. *)

val resilience : (Simulator.resilience, Simulator.resilience) Obs.Row.t
val spec : (Trace.Job.t, int -> Trace.Job.spec) Obs.Row.t

type memo
(** The rows the last save through it wrote, where their lines are in
    that save's bytes, and the buffers the next save writes into: about
    twice one checkpoint's size.  Not shared between domains. *)

val memo : unit -> memo
(** An empty memo: the first save through it encodes every row. *)

val rows : memo -> (string * (int * int)) list
(** For each repeated record kind (["job"], ["fault"], ["ev"], ["run"],
    ["fin"], ["smp"]): how many rows the last save through [memo]
    encoded afresh and how many it copied; [[]] before the first. *)

val encode :
  ?memo:memo ->
  ?meta:(string * Obs.Json.value) list ->
  Simulator.Snapshot.t ->
  string
(** The bytes {!save} writes, without writing them. *)

val save :
  ?memo:memo ->
  ?meta:(string * Obs.Json.value) list ->
  path:string ->
  Simulator.Snapshot.t ->
  unit
(** Write a checkpoint file atomically and durably: temp file + fsync +
    rename + directory fsync, so a crash at any instant leaves either
    the previous checkpoint or the complete new one — never a stale or
    empty file that was already reported saved.  [meta] fields are
    appended to the header record (callers must avoid the header's own
    keys); {!load} ignores them, {!load_ext} returns them.  [memo]
    (default: a fresh one) supplies the rows to reuse and takes this
    save's.  Raises [Sys_error] on I/O failure. *)

val load : path:string -> (Simulator.Snapshot.t, string) result
(** Read a checkpoint back.  [Error] on I/O failure, a failed integrity
    check, a bad magic/version, or any malformed or missing record. *)

val load_ext :
  path:string ->
  (Simulator.Snapshot.t * (string * Obs.Json.value) list, string) result
(** {!load}, also returning the raw header fields — including any
    [?meta] fields the writer embedded (the daemon stores its
    last-applied WAL sequence number there). *)

val fsync_dir : string -> unit
(** Best-effort fsync of a directory fd — the POSIX idiom for making a
    rename durable.  Errors (filesystems that reject directory fsync)
    are swallowed: this hardens crash ordering, it cannot create one. *)

val write : path:string -> Simulator.t -> unit
(** [save] of {!Simulator.snapshot} — raises [Invalid_argument] if a
    scheduling pass is in flight (snapshot only after
    [Simulator.run_until]). *)

val restore :
  ?sink:Obs.Sink.t ->
  ?prof:Obs.Prof.t ->
  ?net:Routing.Telemetry.policy * Routing.Telemetry.shape ->
  path:string ->
  unit ->
  (Simulator.t, string) result
(** [load] followed by {!Simulator.of_snapshot}: a live simulation ready
    for [Simulator.run_until] / [Simulator.finish]. *)
