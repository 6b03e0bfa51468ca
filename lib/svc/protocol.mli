(** Daemon wire protocol: one flat-JSON object per line, both ways.

    Each op's fields are declared once, as an {!Obs.Row} under the
    envelope's ["op"] tag: {!request_of_line} reads with these rows and
    {!request_line} writes with them.

    Requests carry an ["op"] field naming the operation, an optional
    ["rid"] (client request id, echoed in the reply and used for
    duplicate suppression across retries), and an optional ["at"]
    (logical timestamp; ignored in wall-clock mode).  Parsing is total —
    {!request_of_line} never raises, whatever the bytes.

    Requests may also carry a ["version"] field naming the protocol
    version the client speaks.  Absent means version 1 (the pre-molding
    wire format) and is always accepted; version 2 adds [min]/[max] on
    submit and the [resize] op.  A version outside [1..current_version]
    is rejected with [Bad_request] before op dispatch, so newer clients
    get "upgrade the daemon" rather than "unknown op".

    Ops: [submit] (size, runtime, [est_runtime]?, [bw]?, [id]?, and
    [min]/[max] for a moldable request), [cancel] (id),
    [resize] (id, size — molds a running moldable job in place),
    [fail]/[repair] (target, index — names as in fault-script files),
    [advance] (to — logical mode only), [drain], [status], [stats]
    (operational counters: uptime, ops applied, WAL/checkpoint state,
    queue depth, shed and disconnect tallies), [ping], [shutdown],
    [crash] (test hook, gated by the daemon).

    Replies: [{"ok":1,...}] or
    [{"ok":0,"error":<code>,"message":...,"retry_after":<s>?}]. *)

type submit = {
  id : int option;  (** Daemon assigns the next id when absent. *)
  size : int;
  min_size : int option;  (** Moldable lower bound; absent = rigid. *)
  max_size : int option;  (** Moldable upper bound; absent = rigid. *)
  runtime : float;
  est_runtime : float option;
  bw_class : float option;  (** LC+S bandwidth class, default 0.25. *)
}

type request =
  | Submit of submit
  | Cancel of { id : int }
  | Resize of { id : int; size : int }
      (** Mold a running moldable job to [size] nodes in place.  The
          reply reports the engine's verdict — a refusal (rigid job, out
          of range, no room to grow) is an ordinary reply, not an
          error. *)
  | Fault of { kind : Trace.Faults.kind; target : Trace.Faults.target }
  | Advance of { upto : float }
  | Drain
  | Status
  | Stats  (** Operational counters; read-only, never journaled. *)
  | Ping
  | Shutdown
  | Crash of { point : string }

type envelope = {
  rid : string option;
  at : float option;
  version : int;  (** Protocol version claimed by the client; 1 if absent. *)
  req : request;
}

val current_version : int
(** The newest protocol version this daemon speaks (2). *)

type error_code =
  | Parse_failed  (** Not a flat JSON line. *)
  | Bad_request  (** Parsed, but no valid request in it. *)
  | Invalid  (** Well-formed, rejected by the engine. *)
  | Overloaded  (** Ingest queue full — retry after the hint. *)
  | Internal

val error_code_name : error_code -> string

val request_of_line : string -> (envelope, error_code * string) result
(** Total: any input maps to a typed request or a typed error. *)

val request_line : envelope -> string
(** The request's wire line (newline included), written by the rows
    {!request_of_line} reads: [op], the op's fields, then [version]
    (left out at 1), [at] and [rid] when present. *)

val target : (Trace.Faults.target, Trace.Faults.target) Obs.Row.t
(** A fault target as the [target]/[index] field pair ([fail] and
    [repair] requests; the daemon's WAL entries too). *)

val ok_reply : ?fields:(string * Obs.Json.value) list -> string option -> string
(** [ok_reply ?fields rid] is one reply line (newline included). *)

val error_reply :
  ?retry_after:float ->
  rid:string option ->
  error_code ->
  string ->
  string

type error = { code : error_code; message : string; retry_after : float option }

val error_of_fields : (string * Obs.Json.value) list -> error
(** An error reply's fields read back through the row {!error_reply}
    writes.  Raises {!Obs.Json.Parse_error}. *)
