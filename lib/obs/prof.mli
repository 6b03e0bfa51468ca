(** Profiling registry: named counters, gauges and monotonic-clock span
    timers, aggregated into a per-phase profile report.

    This is the wall-clock half of observability — everything the event
    trace deliberately excludes so that traces stay deterministic.
    Names follow a ["phase/metric"] convention (["sched/head_probe"],
    ["state/clones"], ["gauge/queue_depth"]); reports and JSON output
    sort by name, so related metrics group visually by prefix.

    A simulation profiles only when handed a registry ([prof = Some p]);
    with [None] every instrumentation site is a single branch.

    {b Ownership.}  A registry is plain mutable state with no locking:
    it is {e single-writer}, owned by the domain that created it.  Every
    mutator ([incr]/[add]/[set]/[sample]/[record_span]/[time] and the
    [into] side of [merge_into]) raises [Invalid_argument] when called
    from any other domain, so a stray cross-domain record fails loudly
    instead of silently corrupting counts.  Reading (or merging from) a
    registry built on another domain is fine once that domain has been
    joined — the join is the happens-before edge.  The parallel sweep
    therefore gives every cell its own registry and merges them on the
    coordinating domain, in cell submission order. *)

type t

val create : unit -> t
(** The calling domain becomes the owner. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src] into [into]: counters sum, span
    counts/maxima and histogram buckets combine exactly, gauge
    accumulators merge, and float totals add.  Integer parts are
    associative and commutative; float sums are associative only up to
    rounding, so reproducible aggregate reports require a fixed merge
    order (the sweep uses cell submission order).  Memo-hit rates are
    derived from counters at report time, so they recompute correctly
    from a merged registry.  [src] is not modified; [into] must be
    owned by the calling domain. *)

(** {1 Counters} — monotone event tallies. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val set : t -> string -> int -> unit
(** Overwrite — for importing an externally maintained counter
    (e.g. [Fattree.State]'s clone/claim tallies) at end of run. *)

val counter : t -> string -> int
(** 0 for a name never touched. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

(** {1 Gauges} — values sampled over time (queue depth, free nodes). *)

val sample : t -> string -> float -> unit

type gauge_view = {
  g_samples : int;
  g_mean : float;
  g_min : float;
  g_max : float;
}

val gauges : t -> (string * gauge_view) list

(** {1 Spans} — wall-clock timings of code regions. *)

val record_span : t -> string -> float -> unit
(** Record an externally measured duration (nanoseconds). *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk under a monotonic-clock span. *)

type span_view = {
  sp_count : int;
  sp_total_ns : float;
  sp_mean_ns : float;
  sp_max_ns : float;
  sp_p50_ns : float;
      (** Histogram-derived percentile: upper edge of the bucket where
          the cumulative count crosses the quantile, clamped by the
          observed maximum — order-of-magnitude tail estimates. *)
  sp_p90_ns : float;
  sp_p99_ns : float;
  sp_hist : int array;
      (** Bucket counts over decades of nanoseconds: below 1 us, then one
          per decade up to 1 s, then 1 s and over (8 buckets). *)
}

val spans : t -> (string * span_view) list

val find_span : t -> string -> span_view option
(** Single-span read (e.g. ["svc/recovery"] in the daemon status). *)

(** {1 Output} *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable per-phase report (spans, counters, gauges). *)

val to_json : t -> Json.tree
(** One object [{"counters":…,"spans":…,"gauges":…}] with sorted keys —
    embedded by [bench] into BENCH json and written by [jigsaw-sim
    --json --profile] after its metrics row. *)

val encode : t -> string
(** A single-line, newline-free, {e exact} textual serialization of the
    registry (hex floats — unlike {!to_json}, which rounds), suitable
    for embedding in a flat [Json] string field.  The sweep manifest
    uses it to persist per-cell registries across a resume.  Raises
    [Invalid_argument] if a metric name contains [';'], ['|'] or a
    newline (names are identifier-like in practice). *)

val decode : string -> t
(** Inverse of {!encode}; the calling domain owns the result.  Raises
    [Invalid_argument] on malformed input. *)
