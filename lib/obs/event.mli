(** Structured trace events: every observable state transition of a
    simulation run, as typed records (declared in {!Event_types}).

    Events carry {e simulated} time and logical payloads only — never
    wall-clock measurements — so the event stream of a run is a pure
    function of (workload, scheme, seeds): two runs with the same inputs
    produce byte-identical traces, and a trace diff is a behaviour diff.
    Wall-clock profiling lives in {!Prof}, outside the trace.

    Serialization formats (one event per line, both lossless):
    - JSONL: [{"t":…,"ev":"…", …}]: one {!Row} per event kind, in
      event.ml, is that kind's whole schema — it writes the fields and
      reads them back;
    - CSV: one fixed 11-column row
      ([time,event,job,ctx,outcome,target,nodes,leaf_cables,l2_cables,a,b]):
      one table in event.ml names, per kind, the JSON field each generic
      cell carries, and decoding rebuilds the JSON fields and reads them
      through the same rows.  A string cell holding a comma or a line
      break, or starting with a quote, is quoted as RFC 4180 says
      (embedded quotes doubled); every other cell is written bare. *)

include module type of struct
  include Event_types
end

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

val csv_row_complete : string -> bool
(** False when a quoted cell is still open at the end of the string: the
    cell holds a line break, and the row goes on on the next line. *)

val pp : Format.formatter -> t -> unit
(** Debug printing (the JSON form). *)
