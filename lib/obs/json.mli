(** Flat JSON objects: the writer/parser pair behind the JSONL trace
    format, the daemon protocol and every other line-oriented record
    (metrics [--json], checkpoints, WAL entries), plus a writer for the
    nested reports (profiles, BENCH files) that are never read back.

    Deliberately not a JSON library: parsed values are numbers or
    strings only and objects are single-level, which is exactly what the
    record emitters produce.  The parser rejects anything nested. *)

type value = Num of float | Str of string

val write : Buffer.t -> (string * value) list -> unit
(** Append one [{"k":v,...}] object (no trailing newline).  Floats are
    printed with enough digits to round-trip exactly. *)

val add_number : Buffer.t -> float -> unit
(** A number as {!write} prints it: integral values below 1e15 without
    a fraction, any other with 17 significant digits. *)

exception Parse_error of string

val parse_line : string -> (string * value) list
(** Parse one flat object.  Raises {!Parse_error} with a position and
    reason on malformed input. *)

(** Typed field accessors; all raise {!Parse_error} on a missing field
    or a type mismatch. *)

val mem : (string * value) list -> string -> bool
val str : (string * value) list -> string -> string
val num : (string * value) list -> string -> float
val int : (string * value) list -> string -> int

(** {1 Nested reports} — written, never parsed back. *)

type tree =
  | Int of int
  | Float of float  (** Printed exactly, as {!write} prints numbers. *)
  | Fixed of int * float  (** Rounded to that many decimals. *)
  | Text of string
  | Bool of bool
  | Obj of (string * tree) list
  | List of tree list

val write_tree : Buffer.t -> tree -> unit
(** Append [tree] and a newline.  A container at most two levels deep
    that holds a number, string or boolean goes on one line; any other
    puts each member on a line of its own, indented two spaces per
    level, so a list of rows reads (and diffs) one row per line. *)
