(** Write-ahead log for the scheduler daemon.

    A directory of segment files [wal-<start_seq>.jsonl], each a stream
    of flat-JSON lines (the [Obs.Json] writer — no new dependencies).
    Every line, header included, carries a ["crc"] field: the MD5 of the
    line's own serialization without that field.  {!append} fsyncs
    before returning, so a sequence number handed back — and therefore
    any acknowledgement sent to a client — names an entry that survives
    [kill -9] and power loss.

    Reading tolerates exactly the damage a crash can cause and nothing
    more: an unparseable or CRC-failing {e final} line of a segment is a
    torn tail (never acknowledged) and is dropped and counted; the same
    anywhere else, a sequence discontinuity, or a config mismatch across
    segment headers is reported as a loud [Error].  See the policy note
    at the top of [wal.ml]. *)

val version : int
(** Format version stamped into segment headers. *)

val numbered_name : string -> int -> string
(** [numbered_name prefix seq] is ["<prefix>-%012d.jsonl"]: the name of
    a WAL segment ([prefix] ["wal"]) or a daemon checkpoint (["ckpt"]). *)

val numbered_files : string -> string -> (int * string) list
(** [numbered_files prefix dir] lists the {!numbered_name} files with
    that prefix in [dir] as (sequence number, path), in ascending
    order; [[]] if [dir] cannot be read. *)

val segment_name : int -> string
(** [segment_name seq] is ["wal-%012d.jsonl"] — exposed for tests that
    corrupt specific files. *)

val line_of : (string * Obs.Json.value) list -> string
(** Serialize fields, append the ["crc"] field and a newline — the exact
    bytes {!append} writes (minus the record/seq envelope).  Exposed so
    tests can forge valid and near-valid lines. *)

(** {1 Appending} *)

type t

val create :
  dir:string ->
  config:(string * Obs.Json.value) list ->
  start_seq:int ->
  t
(** Open a {e new} segment starting at [start_seq] (truncating any
    leftover same-named file, which by construction holds nothing
    acknowledged), write its header, fsync file and directory.  [config]
    is embedded in every segment header and checked for consistency on
    read; keys must avoid [record]/[version]/[start_seq]/[crc]. *)

val append : t -> (string * Obs.Json.value) list -> int
(** Append one op record ([fields] must not use keys
    [record]/[seq]/[crc]), fsync, and return its sequence number.
    Carries the ["wal-torn"], ["wal-pre-fsync"] and ["wal-post-fsync"]
    crash points. *)

val next_seq : t -> int
(** Sequence number the next {!append} will assign. *)

val segment_start : t -> int
(** First sequence number of the segment currently being written. *)

val rotate : t -> unit
(** Fsync and close the current segment, open a fresh one at
    {!next_seq}.  Done after each checkpoint so {!gc} can reclaim whole
    segments. *)

val close : t -> unit

(** {1 Reading} *)

type entry = { seq : int; fields : (string * Obs.Json.value) list }

type recovered = {
  config : (string * Obs.Json.value) list;
  entries : entry list;  (** Contiguous, ascending [seq]. *)
  first_seq : int;  (** Start of the oldest retained segment. *)
  wal_next_seq : int;  (** One past the last valid entry. *)
  dropped : int;  (** Torn tail lines discarded. *)
  segments : int;
}

val read_dir : dir:string -> (recovered option, string) result
(** Read and validate every segment in [dir].  [Ok None] if the
    directory holds no segments (or only a single fully-torn one —
    nothing was ever acknowledged); [Error] on any damage beyond a torn
    tail. *)

val gc : dir:string -> keep_from:int -> int
(** Delete the longest prefix of segments whose every entry precedes
    [keep_from]; returns how many files went.  Entries [>= keep_from]
    are always retained. *)
