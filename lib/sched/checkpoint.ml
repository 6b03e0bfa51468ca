(* Checkpoint files: a Simulator.Snapshot serialized as a stream of flat
   JSON records (one per line, Obs.Json writer — no new dependencies),
   bracketed by a versioned header and an integrity trailer.

   The file is self-describing: it carries the full workload and fault
   trace plus every piece of dynamic state, so restore needs nothing but
   the file.  Writes are crash-safe — the stream goes to "<path>.tmp"
   and is renamed over the target only after it is complete, so an
   interrupted checkpoint never replaces a good one.  The trailer
   records the line count and the MD5 of every preceding byte; load
   verifies both before parsing, so truncation or corruption fails
   loudly with an integrity error instead of resuming from garbage. *)

open Simulator.Snapshot

(* Version 2 (moldable jobs): job rows may carry "min"/"max" size-spec
   fields, run rows an "epoch" (resize count), and the header a "shrink"
   resilience flag — each written only when it differs from the rigid
   default, so a v2 file of a rigid run is byte-identical to v1 apart
   from the version number.  The loader accepts both versions. *)
let version = 2
let oldest_readable_version = 1
let magic = "jigsaw-checkpoint"

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

(* One [Obs.Row] per record kind: each field is declared once, and the
   declaration both writes and reads it.  Rows of the kinds that occur
   once read back as an update of the snapshot being loaded; rows of
   the repeated kinds read back as one array element. *)

open Obs.Row

(* Arrays ride in one string of space-separated entries. *)
let ints = packed int_entry
let pairs = packed (pair_entry int_entry int_entry)
let nofit_entries = packed (pair_entry int_entry hex_entry)

let resilience =
  let open Simulator in
  let+ requeue = field "requeue" bool (fun r -> r.requeue)
  and+ resubmit_delay = field "resubmit_delay" num (fun r -> r.resubmit_delay)
  and+ max_retries = field "max_retries" int (fun r -> r.max_retries)
  and+ charge_lost_work =
    field "charge_lost_work" bool (fun r -> r.charge_lost_work)
  and+ shrink = field ~omit:false "shrink" bool (fun r -> r.shrink) in
  { requeue; resubmit_delay; max_retries; charge_lost_work; shrink }

(* The run's identity, in the checkpoint header's field order. *)
let params =
  let open Simulator in
  let+ scheme = field "scheme" str (fun p -> p.scheme)
  and+ trace_name = field "trace" str (fun p -> p.trace_name)
  and+ scenario = field "scenario" str (fun p -> p.scenario)
  and+ radix = field "radix" int (fun p -> p.radix)
  and+ system_nodes = field "system_nodes" int (fun p -> p.system_nodes)
  and+ scenario_seed = field "scenario_seed" int (fun p -> p.scenario_seed)
  and+ backfill_window =
    field "backfill_window" int (fun p -> p.backfill_window)
  and+ backfill = field "backfill" bool (fun p -> p.backfill)
  and+ resilience = on (fun p -> p.resilience) resilience in
  { scheme; radix; scenario; scenario_seed; backfill_window; backfill;
    resilience; trace_name; system_nodes }

(* The run's identity, then how many rows of each repeated kind follow.
   Reads back as the identity over an empty body, and the row count of
   each repeated kind. *)
let header =
  let count name get = field name int (fun s -> Array.length (get s)) in
  let+ _ = field "version" int (fun _ -> version)
  and+ params = on (fun s -> s.params) params
  and+ jobs = count "jobs" (fun s -> s.jobs)
  and+ faults = count "faults" (fun s -> s.faults)
  and+ events = count "events" (fun s -> s.events)
  and+ running = count "running" (fun s -> s.running)
  and+ finished = count "finished" (fun s -> s.finished)
  and+ samples = count "samples" (fun s -> s.samples) in
  ( {
      params; jobs = [||]; faults = [||];
      clock = 0.0; steps = 0; next_seq = 0; events = [||]; queue = [||];
      pending_live = [||]; pending_gens = [||]; running = [||];
      nofit = [||]; nofit_release_gen = 0; kills = [||]; reserved = None;
      acc = Accumulators.create ~pending_repairs:0; samples = [||];
      finished = [||];
      counters =
        { claims = 0; releases = 0; failures = 0; repairs = 0; clones = 0 };
    },
    [ ("job", jobs); ("fault", faults); ("ev", events); ("run", running);
      ("fin", finished); ("smp", samples) ] )

(* A job's size flexibility: "min"/"max", written only for moldable
   jobs, so rigid rows keep the version-1 shape.  Reads back as a
   function of the job's size, which a moldable job prefers. *)
let spec =
  let open Trace.Job in
  let range j =
    match j.spec with
    | Rigid _ -> None
    | Moldable { min_size; max_size; pref = _ } -> Some (min_size, max_size)
  in
  let+ range =
    optional range
      (let+ min = field "min" int fst and+ max = field "max" int snd in
       (min, max))
  in
  fun size ->
    match range with
    | None -> Rigid size
    | Some (min_size, max_size) -> Moldable { min_size; max_size; pref = size }

let job =
  let open Trace.Job in
  let+ id = field "id" int (fun j -> j.id)
  and+ size = field "size" int (fun j -> j.size)
  and+ runtime = field "runtime" num (fun j -> j.runtime)
  and+ est_runtime = field "est" num (fun j -> j.est_runtime)
  and+ arrival = field "arrival" num (fun j -> j.arrival)
  and+ bw_class = field "bw" num (fun j -> j.bw_class)
  and+ spec = spec in
  { id; size; spec = spec size; runtime; est_runtime; arrival; bw_class }

let fault =
  let open Trace.Faults in
  let+ time = field "t" num (fun e -> e.time)
  and+ kind = field "kind" (enum kind_name [ Fail; Repair ]) (fun e -> e.kind)
  and+ target = field "target" str (fun e -> target_name e.target)
  and+ id = field "id" int (fun e -> target_id e.target) in
  match target_of_name target id with
  | Ok target -> { time; kind; target }
  | Error m -> raise (Obs.Json.Parse_error m)

let engine =
  let+ clock = field "clock" num (fun s -> s.clock)
  and+ steps = field "steps" int (fun s -> s.steps)
  and+ next_seq = field "next_seq" int (fun s -> s.next_seq) in
  fun s -> { s with clock; steps; next_seq }

(* A pending event's name: "a:<job>" arrival, "c:<job>:<attempt>"
   completion ("c:<job>:<attempt>:<epoch>" once the attempt has been
   resized in place), "f:<index>" fault.  A scheduling pass is never
   pending between events, so it has no name. *)
let tag =
  let open Simulator in
  conv str
    (function
      | Arrive job -> "a:" ^ string_of_int job
      | Complete { job; attempt; epoch } ->
          let c = "c:" ^ string_of_int job ^ ":" ^ string_of_int attempt in
          if epoch = 0 then c else c ^ ":" ^ string_of_int epoch
      | Fault i -> "f:" ^ string_of_int i
      | Pass -> invalid_arg "Checkpoint: a scheduling pass is in flight")
    (fun t ->
      let int p =
        match int_of_string_opt p with
        | Some n -> n
        | None -> failwith (Printf.sprintf "%S has a non-integer part" t)
      in
      match String.split_on_char ':' t with
      | [ "a"; job ] -> Arrive (int job)
      | [ "c"; job; attempt ] ->
          Complete { job = int job; attempt = int attempt; epoch = 0 }
      | [ "c"; job; attempt; epoch ] ->
          Complete { job = int job; attempt = int attempt; epoch = int epoch }
      | [ "f"; i ] -> Fault (int i)
      | _ -> failwith (Printf.sprintf "names no event: %S" t))

(* "prio" is redundant with the tag; a row whose two disagree is
   corrupt. *)
let ev =
  let+ ev_time = field "t" num (fun e -> e.ev_time)
  and+ prio = field "prio" int (fun e -> Simulator.event_priority e.ev)
  and+ ev_seq = field "seq" int (fun e -> e.ev_seq)
  and+ ev = field "tag" tag (fun e -> e.ev) in
  if prio <> Simulator.event_priority ev then
    raise
      (Obs.Json.Parse_error
         (Printf.sprintf "event %d has priority %d, but its tag runs at %d"
            ev_seq prio (Simulator.event_priority ev)));
  { ev_time; ev_seq; ev }

let queue =
  let+ queue = field "entries" pairs (fun s -> s.queue) in
  fun s -> { s with queue }

let pending =
  let+ pending_live = field "ids" ints (fun s -> s.pending_live) in
  fun s -> { s with pending_live }

let gens =
  let+ pending_gens = field "entries" pairs (fun s -> s.pending_gens) in
  fun s -> { s with pending_gens }

let nofit =
  let+ nofit_release_gen = field "gen" int (fun s -> s.nofit_release_gen)
  and+ nofit = field "entries" nofit_entries (fun s -> s.nofit) in
  fun s -> { s with nofit_release_gen; nofit }

let kills =
  let+ kills = field "entries" pairs (fun s -> s.kills) in
  fun s -> { s with kills }

let run =
  let open Fattree.Alloc in
  let+ job = field "id" int (fun r -> r.rs_alloc.job)
  and+ rs_attempt = field "attempt" int (fun r -> r.rs_attempt)
  and+ rs_epoch = field ~omit:0 "epoch" int (fun r -> r.rs_epoch)
  and+ rs_start = field "start" num (fun r -> r.rs_start)
  and+ rs_end = field "end" num (fun r -> r.rs_end)
  and+ rs_est_end = field "est_end" num (fun r -> r.rs_est_end)
  and+ size = field "size" int (fun r -> r.rs_alloc.size)
  and+ bw = field "bw" num (fun r -> r.rs_alloc.bw)
  and+ nodes = field "nodes" ints (fun r -> r.rs_alloc.nodes)
  and+ leaf_cables = field "leaf" ints (fun r -> r.rs_alloc.leaf_cables)
  and+ l2_cables = field "l2" ints (fun r -> r.rs_alloc.l2_cables) in
  { rs_alloc = { job; size; nodes; leaf_cables; l2_cables; bw };
    rs_attempt; rs_epoch; rs_start; rs_end; rs_est_end }

let fin =
  let+ fs_job = field "id" int (fun f -> f.fs_job)
  and+ fs_start = field "start" num (fun f -> f.fs_start)
  and+ fs_end = field "end" num (fun f -> f.fs_end) in
  { fs_job; fs_start; fs_end }

let smp =
  let+ t = field "t" num (fun (t, _, _, _, _) -> t)
  and+ ab = field "ab" int (fun (_, ab, _, _, _) -> ab)
  and+ rb = field "rb" int (fun (_, _, rb, _, _) -> rb)
  and+ p = field "p" int (fun (_, _, _, p, _) -> p)
  and+ f = field "f" int (fun (_, _, _, _, f) -> f) in
  (t, ab, rb, p, f)

(* The simulator's scalar accumulators.  Version-1 files predate molding
   (shrunk, grown) and the daemon (cancelled). *)
let accumulators =
  let open Accumulators in
  let+ sched_clock = field "sched_clock" num (fun a -> a.sched_clock)
  and+ alloc_busy = field "alloc_busy" int (fun a -> a.alloc_busy)
  and+ req_busy = field "req_busy" int (fun a -> a.req_busy)
  and+ last_start_time = field "last_start" num (fun a -> a.last_start_time)
  and+ first_start_time = field "first_start" num (fun a -> a.first_start_time)
  and+ first_blocked_time =
    field "first_blocked" num (fun a -> a.first_blocked_time)
  and+ rejected = field "rejected" int (fun a -> a.rejected)
  and+ pending_repairs =
    field "pending_repairs" int (fun a -> a.pending_repairs)
  and+ fault_events = field "fault_count" int (fun a -> a.fault_events)
  and+ interrupted = field "interrupted" int (fun a -> a.interrupted)
  and+ requeued = field "requeued" int (fun a -> a.requeued)
  and+ abandoned = field "abandoned" int (fun a -> a.abandoned)
  and+ lost_node_time = field "lost_node_time" num (fun a -> a.lost_node_time)
  and+ shrunk = field ~absent:0 "shrunk" int (fun a -> a.shrunk)
  and+ grown = field ~absent:0 "grown" int (fun a -> a.grown)
  and+ started_total = field "started_total" int (fun a -> a.started_total)
  and+ cancelled = field ~absent:0 "cancelled" int (fun a -> a.cancelled) in
  { sched_clock; alloc_busy; req_busy; last_start_time; first_start_time;
    first_blocked_time; rejected; pending_repairs; fault_events; interrupted;
    requeued; abandoned; lost_node_time; shrunk; grown; started_total;
    cancelled }

(* The cluster state's operation tallies. *)
let counters =
  let open Fattree.State in
  let+ claims = field "st_claims" int (fun c -> c.claims)
  and+ releases = field "st_releases" int (fun c -> c.releases)
  and+ failures = field "st_failures" int (fun c -> c.failures)
  and+ repairs = field "st_repairs" int (fun c -> c.repairs)
  and+ clones = field "st_clones" int (fun c -> c.clones) in
  { claims; releases; failures; repairs; clones }

(* The accumulators, then the state's operation tallies and the head
   reservation. *)
let acc =
  let+ acc = on (fun s -> s.acc) accumulators
  and+ counters = on (fun s -> s.counters) counters
  and+ reserved =
    optional
      (fun s -> s.reserved)
      (let+ id = field "reserved_id" int fst
       and+ at = field "reserved_at" num snd in
       (id, at))
  in
  fun s ->
    { s with acc; counters; reserved }

let singletons =
  [ ("engine", engine); ("queue", queue); ("pending", pending); ("gens", gens);
    ("nofit", nofit); ("kills", kills); ("acc", acc) ]

let trailer =
  let+ lines = field "lines" int fst and+ md5 = field "md5" str snd in
  (lines, md5)

(* Durability helpers.  [fsync_dir] is best-effort: directory fsync is
   the POSIX way to persist a rename, but some filesystems reject fsync
   on a directory fd — a failure there must not fail the save. *)
let fsync_dir dir =
  let dir = if dir = "" then Filename.current_dir_name else dir in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let line buf ?tail kind row x =
  Obs.Json.write buf (("record", Obs.Json.Str kind) :: fields ?tail row x);
  Buffer.add_char buf '\n'

(* The rows one save wrote of a memoized kind: the values, where each
   one's line starts in the memo's [text] (one more entry: where the
   last line ends), and, for rows kept by key, each key's index. *)
type 'a kept = { vals : 'a array; starts : int array; ids : (int, int) Hashtbl.t }

let nothing_kept () = { vals = [||]; starts = [| 0 |]; ids = Hashtbl.create 1 }

(* [buf] and [text] live as long as the memo, so a save through a warm
   memo allocates neither: the file is written in [buf], and its body
   copied once, into [text], for the digest and the next save. *)
type memo = {
  buf : Buffer.t;
  mutable text : Bytes.t;  (* the last save's body, which [starts] index *)
  mutable jobs : Trace.Job.t kept;
  mutable events : event kept;
  mutable running : running_job kept;
  mutable finished : finished_job kept;
  mutable samples : (float * int * int * int * int) kept;
  mutable rows : (string * (int * int)) list;
}

let memo () =
  { buf = Buffer.create 65536; text = Bytes.empty; jobs = nothing_kept ();
    events = nothing_kept (); running = nothing_kept ();
    finished = nothing_kept (); samples = nothing_kept (); rows = [] }

let rows memo = memo.rows

(* When a row's line may be copied from the last save.  Jobs and samples
   are never mutated, so the physically same value at the same index
   prints the same line.  Pending events, running and finished rows are
   rebuilt by every snapshot, so they are found by their key (an event's
   sequence number, a job id) and compared field by field: the event
   and the allocation (never mutated) physically, floats bit for bit —
   [=] would take -0.0 for 0.0, which prints differently. *)
type 'a reuse = Same_position | Same_id of ('a -> int) * ('a -> 'a -> bool)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_ev a b = a.ev == b.ev && same_float a.ev_time b.ev_time

let same_run a b =
  a.rs_alloc == b.rs_alloc && a.rs_attempt = b.rs_attempt
  && a.rs_epoch = b.rs_epoch
  && same_float a.rs_start b.rs_start
  && same_float a.rs_end b.rs_end
  && same_float a.rs_est_end b.rs_est_end

let same_fin a b =
  a.fs_job = b.fs_job
  && same_float a.fs_start b.fs_start
  && same_float a.fs_end b.fs_end

(* Write [xs]' rows of [kind], each copied from [text] when [reuse] finds
   the line the last save wrote for it and encoded otherwise.  Returns
   what the next save may reuse and the (encoded, reused) row counts. *)
let memo_rows buf ~text kind row reuse (kept : _ kept) xs =
  let n = Array.length xs in
  let starts = Array.make (n + 1) 0 in
  let ids = Hashtbl.create (match reuse with Same_position -> 1 | Same_id _ -> n) in
  let reused = ref 0 in
  Array.iteri
    (fun i x ->
      starts.(i) <- Buffer.length buf;
      let prev =
        match reuse with
        | Same_position ->
            if i < Array.length kept.vals && kept.vals.(i) == x then i else -1
        | Same_id (id, same) -> (
            Hashtbl.replace ids (id x) i;
            match Hashtbl.find_opt kept.ids (id x) with
            | Some j when same kept.vals.(j) x -> j
            | _ -> -1)
      in
      if prev < 0 then line buf kind row x
      else begin
        incr reused;
        Buffer.add_subbytes buf text kept.starts.(prev)
          (kept.starts.(prev + 1) - kept.starts.(prev))
      end)
    xs;
  starts.(n) <- Buffer.length buf;
  ({ vals = xs; starts; ids }, (kind, (n - !reused, !reused)))

(* The whole file, body then trailer, in the memo's buffer; [memo] now
   holds this save's rows. *)
let encode_buffer memo meta (s : Simulator.Snapshot.t) =
  let buf = memo.buf and text = memo.text in
  Buffer.clear buf;
  line buf ~tail:meta magic header s;
  let jobs, job_rows = memo_rows buf ~text "job" job Same_position memo.jobs s.jobs in
  Array.iter (line buf "fault" fault) s.faults;
  line buf "engine" engine s;
  let events, ev_rows =
    memo_rows buf ~text "ev" ev
      (Same_id ((fun e -> e.ev_seq), same_ev))
      memo.events s.events
  in
  line buf "queue" queue s;
  line buf "pending" pending s;
  line buf "gens" gens s;
  line buf "nofit" nofit s;
  line buf "kills" kills s;
  let running, run_rows =
    memo_rows buf ~text "run" run
      (Same_id ((fun r -> r.rs_alloc.job), same_run))
      memo.running s.running
  in
  let finished, fin_rows =
    memo_rows buf ~text "fin" fin
      (Same_id ((fun f -> f.fs_job), same_fin))
      memo.finished s.finished
  in
  let samples, smp_rows =
    memo_rows buf ~text "smp" smp Same_position memo.samples s.samples
  in
  line buf "acc" acc s;
  (* Integrity trailer: line count and MD5 of everything above it.  No
     record line holds a newline (the writer escapes them in strings), so
     the count is the header, the singletons and the repeated rows. *)
  let body = Buffer.length buf in
  if Bytes.length text < body then memo.text <- Bytes.create (body + (body / 4));
  Buffer.blit buf 0 memo.text 0 body;
  memo.jobs <- jobs;
  memo.events <- events;
  memo.running <- running;
  memo.finished <- finished;
  memo.samples <- samples;
  memo.rows <-
    [ job_rows; ("fault", (Array.length s.faults, 0)); ev_rows; run_rows;
      fin_rows; smp_rows ];
  let lines =
    1 + List.length singletons + Array.length s.jobs + Array.length s.faults
    + Array.length s.events + Array.length s.running
    + Array.length s.finished + Array.length s.samples
  in
  line buf "end" trailer (lines, Digest.to_hex (Digest.subbytes memo.text 0 body));
  buf

let encode ?(memo = memo ()) ?(meta = []) s =
  Buffer.contents (encode_buffer memo meta s)

let save ?(memo = memo ()) ?(meta = []) ~path (s : Simulator.Snapshot.t) =
  let buf = encode_buffer memo meta s in
  let tmp = path ^ ".tmp" in
  (* Crash-ordering discipline: the bytes must be durable before the
     rename publishes them (or a crash after the rename could expose an
     empty/stale file), and the rename itself must be durable before the
     save is reported successful (directory fsync). *)
  Out_channel.with_open_bin tmp (fun oc ->
      Buffer.output_buffer oc buf;
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* Split off the integrity trailer and verify it against the body bytes
   before any record parsing. *)
let verify_integrity path content =
  let len = String.length content in
  if len = 0 || content.[len - 1] <> '\n' then
    fail "%s: missing integrity trailer (truncated?)" path;
  let trailer_start =
    match String.rindex_from_opt content (len - 2) '\n' with
    | Some i -> i + 1
    | None -> fail "%s: missing integrity trailer (truncated?)" path
  in
  let trailer_line = String.sub content trailer_start (len - 1 - trailer_start) in
  let trailer_fields =
    try Obs.Json.parse_line trailer_line
    with Obs.Json.Parse_error m ->
      fail "%s: unparseable integrity trailer: %s" path m
  in
  (try
     if Obs.Json.str trailer_fields "record" <> "end" then
       fail "%s: last record is not the integrity trailer (truncated?)" path
   with Obs.Json.Parse_error _ ->
     fail "%s: last record is not the integrity trailer (truncated?)" path);
  let body = String.sub content 0 trailer_start in
  let expected, md5 = decode trailer trailer_fields in
  let actual = Digest.to_hex (Digest.string body) in
  if not (String.equal md5 actual) then
    fail "%s: integrity check failed: checksum %s does not match contents (%s)"
      path md5 actual;
  let lines =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 body
  in
  if lines <> expected then
    fail "%s: integrity check failed: %d records, trailer says %d" path lines
      expected;
  body

let load_ext ~path =
  try
    let content =
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error m -> fail "%s" m
    in
    let body = verify_integrity path content in
    let records =
      match Obs.Reader.parse_jsonl body with
      | Ok r -> r
      | Error m -> fail "%s: %s" path m
    in
    let first, rest =
      match records with
      | h :: rest -> (h, rest)
      | [] -> fail "%s: empty checkpoint" path
    in
    if Obs.Json.str first "record" <> magic then
      fail "%s: not a checkpoint file (bad magic)" path;
    let v = Obs.Json.int first "version" in
    if v < oldest_readable_version || v > version then
      fail "%s: unsupported checkpoint version %d (this build reads %d-%d)"
        path v oldest_readable_version version;
    let s, counts = decode header first in
    let kind f = Obs.Json.str f "record" in
    List.iter
      (fun f ->
        let k = kind f in
        if not (List.mem_assoc k counts || List.mem_assoc k singletons) then
          fail "%s: unknown record type %S" path k)
      rest;
    let one s (k, row) =
      match List.find_opt (fun f -> kind f = k) rest with
      | Some f -> decode row f s
      | None -> fail "%s: missing %s record" path k
    in
    let many k row =
      let rows = List.filter (fun f -> kind f = k) rest in
      let expected = List.assoc k counts in
      if List.length rows <> expected then
        fail "%s: %d %s records, header says %d" path (List.length rows) k
          expected;
      Array.of_list (List.map (decode row) rows)
    in
    let s = List.fold_left one s singletons in
    Ok
      ( { s with jobs = many "job" job; faults = many "fault" fault;
          events = many "ev" ev; running = many "run" run;
          finished = many "fin" fin; samples = many "smp" smp },
        first )
  with
  | Bad m -> Error m
  | Obs.Json.Parse_error m -> Error (Printf.sprintf "%s: %s" path m)

let load ~path = Result.map fst (load_ext ~path)

(* ------------------------------------------------------------------ *)
(* Convenience                                                         *)
(* ------------------------------------------------------------------ *)

let write ~path sim = save ~path (Simulator.snapshot sim)

let restore ?sink ?prof ?net ~path () =
  match load ~path with
  | Error m -> Error m
  | Ok s -> Simulator.of_snapshot ?sink ?prof ?net s
