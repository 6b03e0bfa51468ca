(** The scheduler daemon: a single-threaded [Unix.select] reactor over a
    Unix-domain socket, speaking {!Protocol} and journaling every
    accepted op through {!Wal} before acknowledging it.

    Crash contract: at any instant — including [kill -9] mid-write — the
    state directory recovers to exactly the state all {e acknowledged}
    ops produce.  Unacknowledged work (requests whose fsync had not
    completed) vanishes without trace; clients retry them by rid and the
    daemon suppresses duplicates.

    Degradation contract: malformed input gets typed error replies, a
    full ingest queue sheds with [overloaded] + retry-after, clients
    that stop draining replies are disconnected, over-long lines are
    rejected.  The reactor itself never dies to client input.

    DESIGN.md §14 documents the full protocol and recovery procedure. *)

type opts = {
  socket : string;
  dir : string;  (** State directory: WAL segments + checkpoints. *)
  params : Core.params option;
      (** Required for a fresh state dir; if given for an existing one,
          must match its WAL config once both are canonical
          ({!Core.params}). *)
  time_scale : float option;
      (** [Some s]: wall-clock mode, [s] simulated seconds per wall
          second.  [None]: logical time — the clock moves only on op
          stamps and [advance] (the deterministic mode tests use). *)
  max_clients : int;
  max_queue : int;
  max_line : int;
  client_timeout : float;
  ckpt_every_ops : int;
  ckpt_every_s : float;
  retain : int;  (** Checkpoints kept; older pruned, their WAL GC'd. *)
  allow_crash_op : bool;  (** Honor the [crash] test op. *)
  log : string -> unit;
}

val default_opts : socket:string -> dir:string -> opts
(** No params, logical clock off (wall mode off too — [time_scale =
    None] means logical), 32 clients, queue 256, 64 KiB lines, 10 s
    client timeout, checkpoint every 64 ops / 5 s, retain 2, crash op
    disabled, silent. *)

val recover :
  ?sink:Obs.Sink.t ->
  ?prof:Obs.Prof.t ->
  ?params:Core.params ->
  dir:string ->
  unit ->
  (Core.t * Wal.t * string list, string) result
(** Rebuild the pre-crash state: newest usable checkpoint (corrupt ones
    skipped — an older checkpoint plus a longer replay reaches the same
    state) + WAL replay past its [x_svc_seq]; entries at or below it
    seed rid dedup only.  A checkpoint is usable when its params equal
    the WAL header's read back canonical, so headers that spell a name
    as typed (["10"] for ["10%"]) still match.  [Error] on params the
    resolver rejects.  Returns the state, a fresh WAL appender (recovery
    never appends to old segments), and a human-readable report.
    Exposed separately from {!run} so the crash-recovery property tests
    can drive it directly. *)

val run : ?prof:Obs.Prof.t -> opts -> (unit, string) result
(** Recover, bind, serve until a [shutdown] op or SIGTERM/SIGINT, then
    checkpoint and exit cleanly.  [Error] on a recovery or bind
    failure. *)

val ckpt_name : int -> string
(** ["ckpt-%012d.jsonl"] — exposed for tests that corrupt specific
    checkpoint files. *)
