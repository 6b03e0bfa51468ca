(* Write-ahead log: fsync'd, CRC-guarded, segmented.

   Every accepted daemon request becomes one flat-JSON line (the
   [Obs.Json] writer again — no new dependencies) carrying a monotonic
   sequence number and a per-line MD5 over the line's own serialized
   prefix, appended and fsync'd *before* the request is acknowledged.
   The log is the authoritative input record: replaying its entries
   against a fresh simulation reproduces the daemon's state bit for bit.

   Segmentation: each file [wal-<start_seq>.jsonl] opens with a
   CRC-guarded header naming the first sequence number it holds plus the
   daemon's simulation config, so a directory of segments is fully
   self-describing.  The appender rotates to a new segment after every
   checkpoint (and on every daemon start), which is what makes old
   segments garbage-collectable and torn tails attributable.

   Corruption policy, the part that matters:

   - an unparseable or CRC-failing line at the *end* of a segment is a
     torn tail — the victim of a crash mid-append.  It was never
     fsync'd, therefore never acknowledged, therefore safe to drop
     (counted, reported);
   - the same anywhere *else* is lost acknowledged data, and reading
     fails loudly rather than resuming from a silent hole;
   - sequence numbers must be contiguous across lines and segments.
     A torn line that *was* acknowledged cannot slip through by being
     last in its segment: the next segment would continue at the
     following sequence number and the continuity check fails. *)

let version = 1
let magic = "jigsaw-wal"

let num_of_int i = Obs.Json.Num (float_of_int i)

let numbered_name prefix seq = Printf.sprintf "%s-%012d.jsonl" prefix seq

let numbered_files prefix dir =
  let parse name =
    let p = String.length prefix + 1 in
    if
      String.length name = p + 12 + 6
      && String.sub name 0 p = prefix ^ "-"
      && Filename.check_suffix name ".jsonl"
    then int_of_string_opt (String.sub name p 12)
    else None
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun n ->
             Option.map (fun s -> (s, Filename.concat dir n)) (parse n))
      |> List.sort compare

let segment_name = numbered_name "wal"
let segment_files = numbered_files "wal"

(* ------------------------------------------------------------------ *)
(* Lines                                                               *)
(* ------------------------------------------------------------------ *)

(* The CRC covers the serialized object *without* its crc field; the
   writer's float/string printing is canonical (parse + re-serialize is
   the identity on its own output), so the reader can verify by
   re-serializing the parsed fields.  Field key "crc" is reserved. *)
let line_of fields =
  let b = Buffer.create 256 in
  Obs.Json.write b fields;
  let crc = Digest.to_hex (Digest.string (Buffer.contents b)) in
  let b = Buffer.create 256 in
  Obs.Json.write b (fields @ [ ("crc", Obs.Json.Str crc) ]);
  Buffer.add_char b '\n';
  Buffer.contents b

(* [Some fields] (crc stripped) if the line parses and its digest
   matches; [None] for anything else — the caller decides whether the
   position makes that a torn tail or corruption. *)
let checked_line line =
  match Obs.Json.parse_line line with
  | exception Obs.Json.Parse_error _ -> None
  | fields -> (
      match List.assoc_opt "crc" fields with
      | Some (Obs.Json.Str crc) ->
          let rest = List.filter (fun (k, _) -> k <> "crc") fields in
          let b = Buffer.create 256 in
          Obs.Json.write b rest;
          if String.equal (Digest.to_hex (Digest.string (Buffer.contents b))) crc
          then Some rest
          else None
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  dir : string;
  config : (string * Obs.Json.value) list;
  mutable oc : Out_channel.t;
  mutable next_seq : int;
  mutable segment_start : int;
}

let fsync_oc oc =
  Out_channel.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let open_segment ~dir ~config ~start_seq =
  let path = Filename.concat dir (segment_name start_seq) in
  (* O_TRUNC is safe: a same-named segment can only pre-exist when it
     holds no acknowledged entries (its start_seq equals the recovered
     next_seq), and truncating scrubs any torn tail it carried. *)
  let oc =
    Out_channel.open_gen
      [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
      0o644 path
  in
  let header =
    ("record", Obs.Json.Str magic)
    :: ("version", num_of_int version)
    :: ("start_seq", num_of_int start_seq)
    :: config
  in
  Out_channel.output_string oc (line_of header);
  fsync_oc oc;
  Sched.Checkpoint.fsync_dir dir;
  oc

let create ~dir ~config ~start_seq =
  {
    dir;
    config;
    oc = open_segment ~dir ~config ~start_seq;
    next_seq = start_seq;
    segment_start = start_seq;
  }

let next_seq t = t.next_seq
let segment_start t = t.segment_start

let append t fields =
  let seq = t.next_seq in
  let line =
    line_of (("record", Obs.Json.Str "op") :: ("seq", num_of_int seq) :: fields)
  in
  if Crash.triggered "wal-torn" then begin
    (* Stage the state this log exists to survive: half a line on disk,
       then die as if the power went. *)
    Out_channel.output_string t.oc (String.sub line 0 (String.length line / 2));
    Out_channel.flush t.oc;
    Crash.die ()
  end;
  Out_channel.output_string t.oc line;
  Out_channel.flush t.oc;
  Crash.hit "wal-pre-fsync";
  Unix.fsync (Unix.descr_of_out_channel t.oc);
  Crash.hit "wal-post-fsync";
  t.next_seq <- seq + 1;
  seq

let rotate t =
  fsync_oc t.oc;
  Out_channel.close t.oc;
  t.oc <- open_segment ~dir:t.dir ~config:t.config ~start_seq:t.next_seq;
  t.segment_start <- t.next_seq

let close t =
  fsync_oc t.oc;
  Out_channel.close t.oc

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type entry = { seq : int; fields : (string * Obs.Json.value) list }

type recovered = {
  config : (string * Obs.Json.value) list;
  entries : entry list;  (** Contiguous, ascending [seq]. *)
  first_seq : int;  (** Start of the oldest retained segment. *)
  wal_next_seq : int;
  dropped : int;  (** Torn tail lines discarded. *)
  segments : int;
}

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let header_config fields =
  List.filter
    (fun (k, _) -> k <> "record" && k <> "version" && k <> "start_seq")
    fields

let read_dir ~dir =
  match segment_files dir with
  | [] -> Ok None
  | segs -> (
      let nsegs = List.length segs in
      try
        let config = ref None in
        let entries = ref [] in
        let expected = ref (-1) in
        let first_seq = ref (-1) in
        let dropped = ref 0 in
        List.iteri
          (fun si (start_seq, path) ->
            let last_segment = si = nsegs - 1 in
            let content =
              try In_channel.with_open_bin path In_channel.input_all
              with Sys_error m -> corrupt "%s" m
            in
            let lines =
              match List.rev (String.split_on_char '\n' content) with
              | "" :: rest -> List.rev rest
              | all -> List.rev all
            in
            let nlines = List.length lines in
            (try
               List.iteri
                 (fun i line ->
                   match checked_line line with
                   | None ->
                       if i = nlines - 1 then begin
                         (* Torn tail: unacknowledged, droppable — but a
                            torn *header* means the whole segment holds
                            nothing, which only a crash during rotation
                            (necessarily the last segment) explains. *)
                         if i = 0 && not last_segment then
                           corrupt "%s: unreadable segment header" path;
                         incr dropped;
                         raise Exit
                       end
                       else
                         corrupt
                           "%s: corrupt record at line %d (not a torn tail — \
                            acknowledged data is damaged)"
                           path (i + 1)
                   | Some fields -> (
                       if i = 0 then begin
                         (try
                            if Obs.Json.str fields "record" <> magic then
                              corrupt "%s: not a WAL segment" path;
                            if Obs.Json.int fields "version" <> version then
                              corrupt "%s: unsupported WAL version" path;
                            if Obs.Json.int fields "start_seq" <> start_seq then
                              corrupt "%s: header start_seq disagrees with \
                                       file name"
                                path
                          with Obs.Json.Parse_error m ->
                            corrupt "%s: bad segment header: %s" path m);
                         (match !config with
                         | None -> config := Some (header_config fields)
                         | Some c ->
                             if header_config fields <> c then
                               corrupt
                                 "%s: segment config disagrees with the \
                                  first segment's"
                                 path);
                         if !expected = -1 then begin
                           expected := start_seq;
                           first_seq := start_seq
                         end
                         else if start_seq <> !expected then
                           corrupt
                             "%s: sequence gap: segment starts at %d, \
                              expected %d (acknowledged entries missing)"
                             path start_seq !expected
                       end
                       else
                         match Obs.Json.str fields "record" with
                         | "op" ->
                             let seq =
                               try Obs.Json.int fields "seq"
                               with Obs.Json.Parse_error m ->
                                 corrupt "%s: line %d: %s" path (i + 1) m
                             in
                             if seq <> !expected then
                               corrupt
                                 "%s: line %d: sequence %d, expected %d"
                                 path (i + 1) seq !expected;
                             entries := { seq; fields } :: !entries;
                             incr expected
                         | r ->
                             corrupt "%s: line %d: unknown record %S" path
                               (i + 1) r
                         | exception Obs.Json.Parse_error m ->
                             corrupt "%s: line %d: %s" path (i + 1) m))
                 lines
             with Exit -> ()))
          segs;
        match !config with
        | None ->
            (* Every segment collapsed to a torn header — treat as a
               fresh directory (nothing was ever acknowledged). *)
            Ok None
        | Some config ->
            Ok
              (Some
                 {
                   config;
                   entries = List.rev !entries;
                   first_seq = !first_seq;
                   wal_next_seq = !expected;
                   dropped = !dropped;
                   segments = nsegs;
                 })
      with Corrupt m -> Error m)

(* Garbage collection: a segment is deletable when its successor's
   start_seq shows every entry it holds precedes [keep_from] — and only
   as a prefix, so the retained files stay contiguous. *)
let gc ~dir ~keep_from =
  let rec go deleted = function
    | (_, path) :: ((next_start, _) :: _ as rest) when next_start <= keep_from
      ->
        (try Sys.remove path with Sys_error _ -> ());
        go (deleted + 1) rest
    | _ -> deleted
  in
  let n = go 0 (segment_files dir) in
  if n > 0 then Sched.Checkpoint.fsync_dir dir;
  n
