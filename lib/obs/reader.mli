(** Reading traces back: the parsing half of the trace pipeline, shared
    by the [jigsaw-trace] tool and the round-trip tests. *)

type run = {
  meta : Event.run_meta option;
      (** [None] for a headless fragment (no [Run_meta] line). *)
  events : Event.t list;  (** Emission order, meta event excluded. *)
}

val split_runs : Event.t list -> run list
(** Split a flat stream on [Run_meta] boundaries — one [jigsaw-sim
    --sched all --trace-out f] file holds one run per scheme. *)

val load : ?format:Sink.format -> string -> (run list, string) result
(** Read a trace file; format defaults to {!Sink.format_of_path}.  Blank
    lines and a leading CSV header are skipped, and a CSV row whose
    quoted cell holds a line break spans lines.  [Error] carries the
    first offending line number and reason. *)

(** {1 Generic flat JSONL}

    Checkpoint files and sweep manifests are streams of flat {!Json}
    records that are not event traces; {!parse_jsonl} reads them without
    going through {!Event}. *)

val parse_jsonl : string -> ((string * Json.value) list list, string) result
(** Parse a whole buffer of newline-separated flat JSON objects (blank
    lines skipped).  [Error] carries the first offending line number and
    reason. *)
