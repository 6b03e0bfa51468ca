(** Jobs as they appear in scheduling traces. *)

(** How many nodes the job can run on.  [Rigid n] is the classical
    exact request; [Moldable] jobs accept any granted size in
    [min_size, max_size], preferring [pref], and run work-conservingly:
    the node-seconds of the preferred-size run are preserved, so a job
    granted half its preference runs twice as long. *)
type spec =
  | Rigid of int
  | Moldable of { min_size : int; max_size : int; pref : int }

type t = {
  id : int;  (** Dense identifier, unique within a trace. *)
  size : int;
      (** Nominal node count (>= 1): the rigid request, or the moldable
          preference.  Every consumer that predates molding reads this
          field, so rigid behaviour is unchanged by construction. *)
  spec : spec;  (** Size flexibility; [Rigid size] for classical jobs. *)
  runtime : float;
      (** Baseline runtime in seconds {e at the nominal size} — the
          runtime observed (or assumed) under traditional scheduling,
          network interference included. *)
  est_runtime : float;
      (** The user-supplied runtime estimate (requested wall time).  EASY
          backfilling decisions use estimates; actual completions use
          {!runtime}.  Trace generators default it to the actual runtime
          (the paper's traces carry no usable estimates); SWF input takes
          it from the requested-time field when present. *)
  arrival : float;  (** Submission time in seconds. *)
  bw_class : float;
      (** Average per-link bandwidth demand as a fraction of usable link
          capacity, used only by the LC+S scheduler (paper §5.4.2: one of
          0.5/1.0/1.5/2.0 GB/s over a 4 GB/s usable cap, i.e. 0.125,
          0.25, 0.375 or 0.5). *)
}

val v :
  ?arrival:float ->
  ?bw_class:float ->
  ?est_runtime:float ->
  ?spec:spec ->
  id:int ->
  size:int ->
  runtime:float ->
  unit ->
  t
(** Constructor with defaults [arrival = 0.], [bw_class = 0.25],
    [est_runtime = runtime], [spec = Rigid size].  Validates [size >= 1],
    [runtime > 0] and [est_runtime >= runtime] (schedulers kill jobs at
    their estimate; under-estimates would truncate jobs, which the
    simulator does not model).  A [spec] must agree with [size]:
    [Rigid size], or [Moldable] with [pref = size] and
    [1 <= min_size <= pref <= max_size]. *)

val is_large : t -> bool
(** Jobs over 100 nodes — the paper's "large job" threshold for the
    turnaround-time breakdown (Figure 7). *)

val is_moldable : t -> bool

val min_size : t -> int
(** Smallest acceptable granted size ([size] for rigid jobs). *)

val max_size : t -> int
(** Largest useful granted size ([size] for rigid jobs). *)

val at_size : t -> int -> t
(** [at_size j n] is [j] requesting exactly [n] nodes ([size = n], spec
    unchanged) — the probe-time view allocators use to test a candidate
    granted size.  The nominal size (and hence the scenario speedup and
    work-conserving scaling base) is the original [j.size]. *)

val scale_runtime : t -> granted:int -> float -> float
(** [scale_runtime j ~granted base] is the work-conserving runtime of
    [j] granted [granted] nodes when its nominal-size runtime is [base]:
    [base * size / granted], with an exact no-op when [granted = size]
    so rigid timelines stay bit-identical. *)

val pp : Format.formatter -> t -> unit
