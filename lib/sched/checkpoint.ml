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
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let num x = Obs.Json.Num x
let int_ i = Obs.Json.Num (float_of_int i)
let str s = Obs.Json.Str s
let bool_ b = int_ (if b then 1 else 0)
let ints_str a = Array.to_list a |> List.map string_of_int |> String.concat " "

let pairs_str a =
  Array.to_list a
  |> List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b)
  |> String.concat " "

(* Hex floats round-trip exactly and contain no ':' or ' '. *)
let nofit_str a =
  Array.to_list a
  |> List.map (fun (size, bw) -> Printf.sprintf "%d:%h" size bw)
  |> String.concat " "

(* The "acc" row, in file order: the simulator's scalar accumulators,
   then the state's operation tallies.  Each entry is the field's name
   in the file, how to read it from a snapshot, and how to store it into
   a snapshot being loaded.  [~v1] is the value a version-1 file implies
   for a field it does not carry: those files predate molding (shrunk,
   grown) and the daemon (cancelled). *)
let acc_row =
  let int_field ?v1 name get set =
    ( name,
      (fun s -> int_ (get s)),
      fun s f ->
        set s
          (match v1 with
          | Some d when not (Obs.Json.mem f name) -> d
          | _ -> Obs.Json.int f name) )
  and float_field name get set =
    (name, (fun s -> num (get s)), fun s f -> set s (Obs.Json.num f name))
  in
  let acc_int ?v1 name get set =
    int_field ?v1 name (fun s -> get s.acc) (fun s -> set s.acc)
  and acc_float name get set =
    float_field name (fun s -> get s.acc) (fun s -> set s.acc)
  in
  Accumulators.
    [
      acc_float "sched_clock" (fun a -> a.sched_clock) (fun a v ->
          a.sched_clock <- v);
      acc_int "alloc_busy" (fun a -> a.alloc_busy) (fun a v ->
          a.alloc_busy <- v);
      acc_int "req_busy" (fun a -> a.req_busy) (fun a v -> a.req_busy <- v);
      acc_float "last_start" (fun a -> a.last_start_time) (fun a v ->
          a.last_start_time <- v);
      acc_float "first_start" (fun a -> a.first_start_time) (fun a v ->
          a.first_start_time <- v);
      acc_float "first_blocked" (fun a -> a.first_blocked_time) (fun a v ->
          a.first_blocked_time <- v);
      acc_int "rejected" (fun a -> a.rejected) (fun a v -> a.rejected <- v);
      acc_int "pending_repairs" (fun a -> a.pending_repairs) (fun a v ->
          a.pending_repairs <- v);
      acc_int "fault_count" (fun a -> a.fault_events) (fun a v ->
          a.fault_events <- v);
      acc_int "interrupted" (fun a -> a.interrupted) (fun a v ->
          a.interrupted <- v);
      acc_int "requeued" (fun a -> a.requeued) (fun a v -> a.requeued <- v);
      acc_int "abandoned" (fun a -> a.abandoned) (fun a v -> a.abandoned <- v);
      acc_float "lost_node_time" (fun a -> a.lost_node_time) (fun a v ->
          a.lost_node_time <- v);
      acc_int ~v1:0 "shrunk" (fun a -> a.shrunk) (fun a v -> a.shrunk <- v);
      acc_int ~v1:0 "grown" (fun a -> a.grown) (fun a v -> a.grown <- v);
      acc_int "started_total" (fun a -> a.started_total) (fun a v ->
          a.started_total <- v);
      acc_int ~v1:0 "cancelled" (fun a -> a.cancelled) (fun a v ->
          a.cancelled <- v);
      int_field "st_claims" (fun s -> s.st_claims) (fun s v ->
          s.st_claims <- v);
      int_field "st_releases" (fun s -> s.st_releases) (fun s v ->
          s.st_releases <- v);
      int_field "st_failures" (fun s -> s.st_failures) (fun s v ->
          s.st_failures <- v);
      int_field "st_repairs" (fun s -> s.st_repairs) (fun s v ->
          s.st_repairs <- v);
      int_field "st_clones" (fun s -> s.st_clones) (fun s v ->
          s.st_clones <- v);
    ]

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

let save ?(meta = []) ~path (s : Simulator.Snapshot.t) =
  let buf = Buffer.create 65536 in
  let line fields =
    Obs.Json.write buf fields;
    Buffer.add_char buf '\n'
  in
  let r = s.resilience in
  line
    ([
      ("record", str magic);
      ("version", int_ version);
      ("scheme", str s.scheme);
      ("trace", str s.trace_name);
      ("scenario", str s.scenario);
      ("radix", int_ s.radix);
      ("system_nodes", int_ s.system_nodes);
      ("scenario_seed", int_ s.scenario_seed);
      ("backfill_window", int_ s.backfill_window);
      ("backfill", bool_ s.backfill);
      ("requeue", bool_ r.Simulator.requeue);
      ("resubmit_delay", num r.Simulator.resubmit_delay);
      ("max_retries", int_ r.Simulator.max_retries);
      ("charge_lost_work", bool_ r.Simulator.charge_lost_work);
    ]
    @ (if r.Simulator.shrink then [ ("shrink", bool_ true) ] else [])
    @ [
      ("jobs", int_ (Array.length s.jobs));
      ("faults", int_ (Array.length s.faults));
      ("events", int_ (Array.length s.events));
      ("running", int_ (Array.length s.running));
      ("finished", int_ (Array.length s.finished));
      ("samples", int_ (Array.length s.samples));
    ]
    @ meta);
  Array.iter
    (fun (j : Trace.Job.t) ->
      line
        ([
           ("record", str "job");
           ("id", int_ j.id);
           ("size", int_ j.size);
           ("runtime", num j.runtime);
           ("est", num j.est_runtime);
           ("arrival", num j.arrival);
           ("bw", num j.bw_class);
         ]
        @
        match j.spec with
        | Trace.Job.Rigid _ -> []
        | Trace.Job.Moldable { min_size; max_size; pref = _ } ->
            [ ("min", int_ min_size); ("max", int_ max_size) ]))
    s.jobs;
  Array.iter
    (fun (e : Trace.Faults.event) ->
      line
        [
          ("record", str "fault");
          ("t", num e.time);
          ("kind", str (match e.kind with Fail -> "fail" | Repair -> "repair"));
          ("target", str (Trace.Faults.target_name e.target));
          ("id", int_ (Trace.Faults.target_id e.target));
        ])
    s.faults;
  line
    [
      ("record", str "engine");
      ("clock", num s.clock);
      ("steps", int_ s.steps);
      ("next_seq", int_ s.next_seq);
    ];
  Array.iter
    (fun (ev : event) ->
      line
        [
          ("record", str "ev");
          ("t", num ev.ev_time);
          ("prio", int_ ev.ev_priority);
          ("seq", int_ ev.ev_seq);
          ("tag", str ev.ev_tag);
        ])
    s.events;
  line [ ("record", str "queue"); ("entries", str (pairs_str s.queue)) ];
  line [ ("record", str "pending"); ("ids", str (ints_str s.pending_live)) ];
  line [ ("record", str "gens"); ("entries", str (pairs_str s.pending_gens)) ];
  line
    [
      ("record", str "nofit");
      ("gen", int_ s.nofit_release_gen);
      ("entries", str (nofit_str s.nofit));
    ];
  line [ ("record", str "kills"); ("entries", str (pairs_str s.kills)) ];
  Array.iter
    (fun (rj : running_job) ->
      line
        ([
           ("record", str "run");
           ("id", int_ rj.rs_job);
           ("attempt", int_ rj.rs_attempt);
         ]
        @ (if rj.rs_epoch > 0 then [ ("epoch", int_ rj.rs_epoch) ] else [])
        @ [
            ("start", num rj.rs_start);
            ("end", num rj.rs_end);
            ("est_end", num rj.rs_est_end);
            ("size", int_ rj.rs_size);
            ("bw", num rj.rs_bw);
            ("nodes", str (ints_str rj.rs_nodes));
            ("leaf", str (ints_str rj.rs_leaf_cables));
            ("l2", str (ints_str rj.rs_l2_cables));
          ]))
    s.running;
  Array.iter
    (fun (f : finished_job) ->
      line
        [
          ("record", str "fin");
          ("id", int_ f.fs_job);
          ("start", num f.fs_start);
          ("end", num f.fs_end);
        ])
    s.finished;
  Array.iter
    (fun (t, ab, rb, p, fl) ->
      line
        [
          ("record", str "smp");
          ("t", num t);
          ("ab", int_ ab);
          ("rb", int_ rb);
          ("p", int_ p);
          ("f", int_ fl);
        ])
    s.samples;
  line
    ((("record", str "acc")
     :: List.map (fun (name, get, _) -> (name, get s)) acc_row)
    @
    match s.reserved with
    | None -> []
    | Some (id, at) -> [ ("reserved_id", int_ id); ("reserved_at", num at) ]);
  (* Integrity trailer: line count and MD5 of everything above it. *)
  let body = Buffer.contents buf in
  let lines =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 body
  in
  Obs.Json.write buf
    [
      ("record", str "end");
      ("lines", int_ lines);
      ("md5", str (Digest.to_hex (Digest.string body)));
    ];
  Buffer.add_char buf '\n';
  let tmp = path ^ ".tmp" in
  (* Crash-ordering discipline: the bytes must be durable before the
     rename publishes them (or a crash after the rename could expose an
     empty/stale file), and the rename itself must be durable before the
     save is reported successful (directory fsync). *)
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf);
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let parse_pairs what s =
  if s = "" then [||]
  else
    String.split_on_char ' ' s
    |> List.map (fun entry ->
           match String.split_on_char ':' entry with
           | [ a; b ] -> (
               match (int_of_string_opt a, int_of_string_opt b) with
               | Some a, Some b -> (a, b)
               | _ -> fail "malformed %s entry %S" what entry)
           | _ -> fail "malformed %s entry %S" what entry)
    |> Array.of_list

let parse_ints what s =
  if s = "" then [||]
  else
    String.split_on_char ' ' s
    |> List.map (fun v ->
           match int_of_string_opt v with
           | Some i -> i
           | None -> fail "malformed %s entry %S" what v)
    |> Array.of_list

let parse_nofit s =
  if s = "" then [||]
  else
    String.split_on_char ' ' s
    |> List.map (fun entry ->
           match String.split_on_char ':' entry with
           | [ size; bw ] -> (
               match (int_of_string_opt size, float_of_string_opt bw) with
               | Some size, Some bw -> (size, bw)
               | _ -> fail "malformed nofit entry %S" entry)
           | _ -> fail "malformed nofit entry %S" entry)
    |> Array.of_list

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
  let trailer =
    try Obs.Json.parse_line trailer_line
    with Obs.Json.Parse_error m ->
      fail "%s: unparseable integrity trailer: %s" path m
  in
  (try
     if Obs.Json.str trailer "record" <> "end" then
       fail "%s: last record is not the integrity trailer (truncated?)" path
   with Obs.Json.Parse_error _ ->
     fail "%s: last record is not the integrity trailer (truncated?)" path);
  let body = String.sub content 0 trailer_start in
  let md5 = Obs.Json.str trailer "md5" in
  let actual = Digest.to_hex (Digest.string body) in
  if not (String.equal md5 actual) then
    fail "%s: integrity check failed: checksum %s does not match contents (%s)"
      path md5 actual;
  let lines =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 body
  in
  let expected = Obs.Json.int trailer "lines" in
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
    let header, rest =
      match records with
      | h :: rest -> (h, rest)
      | [] -> fail "%s: empty checkpoint" path
    in
    let jstr = Obs.Json.str and jnum = Obs.Json.num and jint = Obs.Json.int in
    if jstr header "record" <> magic then
      fail "%s: not a checkpoint file (bad magic)" path;
    let v = jint header "version" in
    if v < oldest_readable_version || v > version then
      fail "%s: unsupported checkpoint version %d (this build reads %d-%d)"
        path v oldest_readable_version version;
    let jobs = ref [] and faults = ref [] and events = ref [] in
    let running = ref [] and finished = ref [] and samples = ref [] in
    let engine = ref None and acc = ref None in
    let queue = ref None and pending = ref None and gens = ref None in
    let nofit = ref None and kills = ref None in
    List.iter
      (fun f ->
        match jstr f "record" with
        | "job" ->
            let size = jint f "size" in
            let spec =
              (* v1 rows (and v2 rigid rows) carry no size-spec fields. *)
              if Obs.Json.mem f "min" then
                Trace.Job.Moldable
                  {
                    min_size = jint f "min";
                    max_size = jint f "max";
                    pref = size;
                  }
              else Trace.Job.Rigid size
            in
            jobs :=
              {
                Trace.Job.id = jint f "id";
                size;
                spec;
                runtime = jnum f "runtime";
                est_runtime = jnum f "est";
                arrival = jnum f "arrival";
                bw_class = jnum f "bw";
              }
              :: !jobs
        | "fault" ->
            let kind =
              match jstr f "kind" with
              | "fail" -> Trace.Faults.Fail
              | "repair" -> Trace.Faults.Repair
              | k -> fail "%s: unknown fault kind %S" path k
            in
            let target =
              match Trace.Faults.target_of_name (jstr f "target") (jint f "id")
              with
              | Ok t -> t
              | Error m -> fail "%s: %s" path m
            in
            faults := { Trace.Faults.time = jnum f "t"; kind; target } :: !faults
        | "engine" -> engine := Some f
        | "ev" ->
            events :=
              {
                ev_time = jnum f "t";
                ev_priority = jint f "prio";
                ev_seq = jint f "seq";
                ev_tag = jstr f "tag";
              }
              :: !events
        | "queue" -> queue := Some (parse_pairs "queue" (jstr f "entries"))
        | "pending" -> pending := Some (parse_ints "pending" (jstr f "ids"))
        | "gens" -> gens := Some (parse_pairs "gens" (jstr f "entries"))
        | "nofit" -> nofit := Some (jint f "gen", parse_nofit (jstr f "entries"))
        | "kills" -> kills := Some (parse_pairs "kills" (jstr f "entries"))
        | "run" ->
            running :=
              {
                rs_job = jint f "id";
                rs_attempt = jint f "attempt";
                rs_epoch = (if Obs.Json.mem f "epoch" then jint f "epoch" else 0);
                rs_start = jnum f "start";
                rs_end = jnum f "end";
                rs_est_end = jnum f "est_end";
                rs_size = jint f "size";
                rs_bw = jnum f "bw";
                rs_nodes = parse_ints "nodes" (jstr f "nodes");
                rs_leaf_cables = parse_ints "leaf" (jstr f "leaf");
                rs_l2_cables = parse_ints "l2" (jstr f "l2");
              }
              :: !running
        | "fin" ->
            finished :=
              {
                fs_job = jint f "id";
                fs_start = jnum f "start";
                fs_end = jnum f "end";
              }
              :: !finished
        | "smp" ->
            samples :=
              (jnum f "t", jint f "ab", jint f "rb", jint f "p", jint f "f")
              :: !samples
        | "acc" -> acc := Some f
        | r -> fail "%s: unknown record type %S" path r)
      rest;
    let require what = function
      | Some v -> v
      | None -> fail "%s: missing %s record" path what
    in
    let engine = require "engine" !engine in
    let acc = require "acc" !acc in
    let nofit_gen, nofit = require "nofit" !nofit in
    let arr what counted got =
      let a = Array.of_list (List.rev got) in
      let expected = jint header counted in
      if Array.length a <> expected then
        fail "%s: %d %s records, header says %d" path (Array.length a) what
          expected;
      a
    in
    let s =
      {
        scheme = jstr header "scheme";
        radix = jint header "radix";
        scenario = jstr header "scenario";
        scenario_seed = jint header "scenario_seed";
        backfill_window = jint header "backfill_window";
        backfill = jint header "backfill" <> 0;
        resilience =
          {
            Simulator.requeue = jint header "requeue" <> 0;
            resubmit_delay = jnum header "resubmit_delay";
            max_retries = jint header "max_retries";
            charge_lost_work = jint header "charge_lost_work" <> 0;
            shrink =
              Obs.Json.mem header "shrink" && jint header "shrink" <> 0;
          };
        trace_name = jstr header "trace";
        system_nodes = jint header "system_nodes";
        jobs = arr "job" "jobs" !jobs;
        faults = arr "fault" "faults" !faults;
        clock = jnum engine "clock";
        steps = jint engine "steps";
        next_seq = jint engine "next_seq";
        events = arr "event" "events" !events;
        queue = require "queue" !queue;
        pending_live = require "pending" !pending;
        pending_gens = require "gens" !gens;
        running = arr "running" "running" !running;
        nofit;
        nofit_release_gen = nofit_gen;
        kills = require "kills" !kills;
        reserved =
          (if Obs.Json.mem acc "reserved_id" then
             Some (jint acc "reserved_id", jnum acc "reserved_at")
           else None);
        acc = Accumulators.create ~pending_repairs:0;
        samples = arr "sample" "samples" !samples;
        finished = arr "finished" "finished" !finished;
        st_claims = 0;
        st_releases = 0;
        st_failures = 0;
        st_repairs = 0;
        st_clones = 0;
      }
    in
    List.iter (fun (_, _, set) -> set s acc) acc_row;
    Ok (s, header)
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
