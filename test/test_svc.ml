(* Crash-safety of the scheduler-as-a-service layer: the state directory
   must recover to the uncrashed state from a [kill -9] landing at any
   instruction — mid-WAL-write, between fsync and apply, right after a
   checkpoint — for every scheme, with and without faults.  Plus the
   degradation contract: fuzzed input never raises out of the protocol
   parser or kills the reactor, and interrupted sweeps journal and
   resume.

   The crash trials fork a child that drives the daemon's journaled op
   path (admit -> WAL append+fsync -> apply -> maybe checkpoint) with a
   [Crash] point armed via JIGSAW_SVC_CRASH, wait for the self-SIGKILL,
   then recover in-process and finish the op script.  The final drained
   fingerprint must equal the script run uncrashed. *)

let radix = 8

let requeue_policy =
  {
    Sched.Simulator.requeue = true;
    resubmit_delay = 30.0;
    max_retries = 2;
    charge_lost_work = true;
    shrink = false;
  }

let params ?(scheme = "Jigsaw") ?(faulty = false) () =
  {
    Svc.Core.scheme;
    radix;
    scenario = "None";
    scenario_seed = 1;
    backfill_window = 50;
    backfill = true;
    resilience =
      (if faulty then requeue_policy else Sched.Simulator.no_resilience);
    trace_name = "svc-test";
    system_nodes = 0;
  }

(* ------------------------------------------------------------------ *)
(* Temp dirs                                                           *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { st_kind = S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let with_tmpdir f =
  let dir = Filename.temp_file "jigsaw-svc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)
(* ------------------------------------------------------------------ *)

let config = [ ("who", Obs.Json.Str "test"); ("n", Obs.Json.Num 3.0) ]
let op_fields i = [ ("op", Obs.Json.Str "noop"); ("i", Obs.Json.Num (float_of_int i)) ]

let test_wal_roundtrip () =
  with_tmpdir (fun dir ->
      let w = Svc.Wal.create ~dir ~config ~start_seq:0 in
      let seqs = List.init 5 (fun i -> Svc.Wal.append w (op_fields i)) in
      Alcotest.(check (list int)) "seqs" [ 0; 1; 2; 3; 4 ] seqs;
      Svc.Wal.rotate w;
      Alcotest.(check int) "segment start after rotate" 5
        (Svc.Wal.segment_start w);
      ignore (Svc.Wal.append w (op_fields 5));
      ignore (Svc.Wal.append w (op_fields 6));
      Svc.Wal.close w;
      match Svc.Wal.read_dir ~dir with
      | Error m -> Alcotest.failf "read_dir: %s" m
      | Ok None -> Alcotest.fail "read_dir: empty"
      | Ok (Some r) ->
          Alcotest.(check int) "entries" 7 (List.length r.entries);
          Alcotest.(check int) "next" 7 r.wal_next_seq;
          Alcotest.(check int) "dropped" 0 r.dropped;
          Alcotest.(check int) "segments" 2 r.segments;
          List.iteri
            (fun i (e : Svc.Wal.entry) ->
              Alcotest.(check int) "seq" i e.seq;
              Alcotest.(check (float 0.0)) "payload" (float_of_int i)
                (Obs.Json.num e.fields "i"))
            r.entries;
          Alcotest.(check string) "config str" "test"
            (Obs.Json.str r.config "who"))

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let test_wal_torn_tail () =
  with_tmpdir (fun dir ->
      let w = Svc.Wal.create ~dir ~config ~start_seq:0 in
      for i = 0 to 3 do
        ignore (Svc.Wal.append w (op_fields i))
      done;
      Svc.Wal.close w;
      let seg = Filename.concat dir (Svc.Wal.segment_name 0) in
      (* A half-written line: no CRC, no newline — what a crash mid-
         [write] leaves behind. *)
      append_bytes seg "{\"op\":\"noop\",\"i\":4";
      (match Svc.Wal.read_dir ~dir with
      | Error m -> Alcotest.failf "torn tail should recover: %s" m
      | Ok None -> Alcotest.fail "torn tail: empty"
      | Ok (Some r) ->
          Alcotest.(check int) "entries survive" 4 (List.length r.entries);
          Alcotest.(check int) "dropped" 1 r.dropped;
          Alcotest.(check int) "next" 4 r.wal_next_seq);
      (* A complete line whose CRC fails (bit flip in transit to disk)
         is also only tolerable as the final line. *)
      let good =
        Svc.Wal.line_of
          (("record", Obs.Json.Str "op") :: ("seq", Obs.Json.Num 5.0)
          :: op_fields 5)
      in
      let flipped = Bytes.of_string good in
      Bytes.set flipped 8 'X';
      with_tmpdir (fun dir2 ->
          let w2 = Svc.Wal.create ~dir:dir2 ~config ~start_seq:0 in
          for i = 0 to 2 do
            ignore (Svc.Wal.append w2 (op_fields i))
          done;
          Svc.Wal.close w2;
          append_bytes
            (Filename.concat dir2 (Svc.Wal.segment_name 0))
            (Bytes.to_string flipped);
          match Svc.Wal.read_dir ~dir:dir2 with
          | Ok (Some r) ->
              Alcotest.(check int) "crc-fail tail dropped" 1 r.dropped;
              Alcotest.(check int) "entries" 3 (List.length r.entries)
          | Ok None -> Alcotest.fail "crc tail: empty"
          | Error m -> Alcotest.failf "crc tail should recover: %s" m))

let test_wal_mid_corruption () =
  with_tmpdir (fun dir ->
      let w = Svc.Wal.create ~dir ~config ~start_seq:0 in
      for i = 0 to 4 do
        ignore (Svc.Wal.append w (op_fields i))
      done;
      Svc.Wal.close w;
      let seg = Filename.concat dir (Svc.Wal.segment_name 0) in
      let lines = In_channel.with_open_bin seg In_channel.input_lines in
      (* Flip a byte in an interior line: damage a crash cannot cause,
         so the reader must refuse the whole directory loudly. *)
      let corrupted =
        List.mapi
          (fun i l ->
            if i = 2 then (
              let b = Bytes.of_string l in
              Bytes.set b (Bytes.length b / 2) '~';
              Bytes.to_string b)
            else l)
          lines
      in
      Out_channel.with_open_bin seg (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) corrupted);
      match Svc.Wal.read_dir ~dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "interior corruption must be a loud error")

let test_wal_seq_gap () =
  with_tmpdir (fun dir ->
      let w = Svc.Wal.create ~dir ~config ~start_seq:0 in
      for i = 0 to 2 do
        ignore (Svc.Wal.append w (op_fields i))
      done;
      Svc.Wal.close w;
      (* A second segment that skips seq 3–4: continuity violation. *)
      let w2 = Svc.Wal.create ~dir ~config ~start_seq:5 in
      ignore (Svc.Wal.append w2 (op_fields 5));
      Svc.Wal.close w2;
      match Svc.Wal.read_dir ~dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "sequence gap must be a loud error")

let test_wal_gc () =
  with_tmpdir (fun dir ->
      let w = Svc.Wal.create ~dir ~config ~start_seq:0 in
      for i = 0 to 2 do
        ignore (Svc.Wal.append w (op_fields i))
      done;
      Svc.Wal.rotate w;
      for i = 3 to 5 do
        ignore (Svc.Wal.append w (op_fields i))
      done;
      Svc.Wal.rotate w;
      ignore (Svc.Wal.append w (op_fields 6));
      Svc.Wal.close w;
      (* keep_from inside the second segment: only the first may go. *)
      Alcotest.(check int) "gc one segment" 1 (Svc.Wal.gc ~dir ~keep_from:4);
      (match Svc.Wal.read_dir ~dir with
      | Ok (Some r) ->
          Alcotest.(check int) "first_seq" 3 r.first_seq;
          Alcotest.(check int) "next" 7 r.wal_next_seq
      | _ -> Alcotest.fail "gc broke the dir");
      Alcotest.(check int) "gc keeps live tail" 0
        (Svc.Wal.gc ~dir ~keep_from:4))

let test_wal_empty_and_fully_torn () =
  with_tmpdir (fun dir ->
      (match Svc.Wal.read_dir ~dir with
      | Ok None -> ()
      | _ -> Alcotest.fail "empty dir must read as None");
      (* A lone segment whose header never made it to disk whole:
         nothing was acknowledged, so this is a fresh start. *)
      append_bytes (Filename.concat dir (Svc.Wal.segment_name 0)) "{\"rec";
      match Svc.Wal.read_dir ~dir with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "torn header must collapse to None"
      | Error m -> Alcotest.failf "torn lone header must recover: %s" m)

(* ------------------------------------------------------------------ *)
(* Protocol fuzz                                                       *)
(* ------------------------------------------------------------------ *)

let test_protocol_fuzz () =
  let prng = Sim.Prng.create ~seed:97 in
  for _ = 1 to 2000 do
    let len = Sim.Prng.int prng ~bound:120 in
    let line =
      String.init len (fun _ ->
          (* Bias toward JSON punctuation so some lines get deep into
             the parser before failing. *)
          match Sim.Prng.int prng ~bound:10 with
          | 0 -> '{'
          | 1 -> '}'
          | 2 -> '"'
          | 3 -> ':'
          | 4 -> ','
          | 5 -> Char.chr (Sim.Prng.int prng ~bound:256)
          | _ -> Char.chr (32 + Sim.Prng.int prng ~bound:95))
    in
    match Svc.Protocol.request_of_line line with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "request_of_line raised %s on %S"
          (Printexc.to_string e) line
  done

let test_protocol_typed_errors () =
  let err line =
    match Svc.Protocol.request_of_line line with
    | Error (code, _) -> Svc.Protocol.error_code_name code
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  Alcotest.(check string) "garbage" "parse" (err "not json at all");
  Alcotest.(check string) "no op" "bad-request" (err "{}");
  Alcotest.(check string) "unknown op" "bad-request"
    (err "{\"op\":\"frobnicate\"}");
  Alcotest.(check string) "submit sans size" "bad-request"
    (err "{\"op\":\"submit\",\"runtime\":10}");
  Alcotest.(check string) "negative size" "bad-request"
    (err "{\"op\":\"submit\",\"size\":-4,\"runtime\":10}");
  Alcotest.(check string) "nan runtime" "parse"
    (err "{\"op\":\"submit\",\"size\":4,\"runtime\":nan}");
  Alcotest.(check string) "infinite runtime" "bad-request"
    (err "{\"op\":\"submit\",\"size\":4,\"runtime\":1e999}");
  Alcotest.(check string) "bad fault target" "bad-request"
    (err "{\"op\":\"fail\",\"target\":\"moon\",\"index\":0}");
  (* A numeric rid would silently turn off duplicate suppression. *)
  Alcotest.(check string) "non-string rid" "bad-request"
    (err "{\"op\":\"submit\",\"size\":4,\"runtime\":100,\"rid\":7,\"at\":10}");
  match Svc.Protocol.request_of_line "{\"op\":\"ping\",\"rid\":\"r1\"}" with
  | Ok { rid = Some "r1"; req = Svc.Protocol.Ping; _ } -> ()
  | _ -> Alcotest.fail "ping did not parse"

(* Every request the writer can produce parses back to itself, with
   each optional field present and absent. *)
let prop_request_roundtrip =
  let open QCheck2.Gen in
  let fin = map (fun x -> if Float.is_finite x then x else 0.5) float in
  let nonneg = map Float.abs fin in
  let some g = opt g in
  let text = string_size ~gen:printable (int_range 0 12) in
  let target =
    let* i = int_range 0 5000 in
    oneofl
      Trace.Faults.
        [ Node i; Leaf_cable i; L2_cable i; Leaf_switch i; L2_switch i; Spine i ]
  in
  let submit =
    let* id = some (int_range 0 100_000)
    and* size = int_range 1 4096
    and* min_size = some (int_range 1 4096)
    and* max_size = some (int_range 1 4096)
    and* runtime = nonneg
    and* est_runtime = some fin
    and* bw_class = some fin in
    return
      (Svc.Protocol.Submit
         { id; size; min_size; max_size; runtime; est_runtime; bw_class })
  in
  let request =
    oneof
      [
        submit;
        map (fun id -> Svc.Protocol.Cancel { id }) (int_range 0 100_000);
        map2
          (fun id size -> Svc.Protocol.Resize { id; size })
          (int_range 0 100_000) (int_range 1 4096);
        map2
          (fun kind target -> Svc.Protocol.Fault { kind; target })
          (oneofl Trace.Faults.[ Fail; Repair ])
          target;
        map (fun upto -> Svc.Protocol.Advance { upto }) fin;
        oneofl Svc.Protocol.[ Drain; Status; Stats; Ping; Shutdown ];
        map (fun point -> Svc.Protocol.Crash { point }) text;
      ]
  in
  let envelope =
    let* req = request
    and* rid = some text
    and* at = some fin
    and* version = int_range 1 Svc.Protocol.current_version in
    return { Svc.Protocol.rid; at; version; req }
  in
  QCheck2.Test.make ~name:"protocol request round-trip" ~count:1000
    ~print:Svc.Protocol.request_line envelope (fun e ->
      Svc.Protocol.request_of_line (Svc.Protocol.request_line e) = Ok e)

let test_protocol_versioning () =
  let ok line =
    match Svc.Protocol.request_of_line line with
    | Ok e -> e
    | Error (_, m) -> Alcotest.failf "rejected %S: %s" line m
  in
  (* Requests from pre-versioning clients carry no version field and
     must keep parsing as v1 forever. *)
  Alcotest.(check int) "absent version = v1" 1 (ok "{\"op\":\"ping\"}").version;
  Alcotest.(check int) "current version accepted" Svc.Protocol.current_version
    (ok
       (Printf.sprintf "{\"op\":\"ping\",\"version\":%d}"
          Svc.Protocol.current_version))
      .version;
  (match
     Svc.Protocol.request_of_line
       "{\"op\":\"resize\",\"id\":3,\"size\":16,\"version\":2}"
   with
  | Ok { req = Svc.Protocol.Resize { id = 3; size = 16 }; version = 2; _ } ->
      ()
  | _ -> Alcotest.fail "resize did not parse");
  (match
     Svc.Protocol.request_of_line
       "{\"op\":\"submit\",\"size\":8,\"min\":4,\"max\":16,\"runtime\":10,\
        \"version\":2}"
   with
  | Ok { req = Svc.Protocol.Submit { min_size = Some 4; max_size = Some 16; _ };
         _ } ->
      ()
  | _ -> Alcotest.fail "moldable submit did not parse");
  let err line =
    match Svc.Protocol.request_of_line line with
    | Error (code, m) -> (Svc.Protocol.error_code_name code, m)
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  (* A speaker from the future is told about the version mismatch, not
     given a misleading unknown-op error for whatever op it used. *)
  let code, m = err "{\"op\":\"frobnicate\",\"version\":3}" in
  Alcotest.(check string) "future version refused" "bad-request" code;
  Alcotest.(check bool) "refusal names the version gap" true
    (String.length m >= 11 && String.sub m 0 11 = "unsupported");
  let code, _ = err "{\"op\":\"ping\",\"version\":0}" in
  Alcotest.(check string) "version 0 refused" "bad-request" code;
  let code, _ = err "{\"op\":\"resize\",\"id\":3,\"size\":0,\"version\":2}" in
  Alcotest.(check string) "non-positive resize size" "bad-request" code

(* ------------------------------------------------------------------ *)
(* Op scripts: the deterministic workload every recovery test replays   *)
(* ------------------------------------------------------------------ *)

let submit_of (j : Trace.Job.t) =
  Svc.Protocol.Submit
    {
      id = None;
      size = j.size;
      min_size =
        (match j.spec with
        | Trace.Job.Rigid _ -> None
        | Trace.Job.Moldable { min_size; _ } -> Some min_size);
      max_size =
        (match j.spec with
        | Trace.Job.Rigid _ -> None
        | Trace.Job.Moldable { max_size; _ } -> Some max_size);
      runtime = j.runtime;
      est_runtime = Some j.est_runtime;
      bw_class = Some j.bw_class;
    }

(* [n_jobs] submissions spaced 40 s apart, two cancels (one live, one
   unknown), and — when [faulty] — a fail/repair pair on a node and on
   a whole leaf switch, straddling several submissions. *)
let mk_ops ~n_jobs ~faulty =
  let w = Trace.Synthetic.synth ~mean_size:16 ~n_jobs ~seed:42 ~max_size:128 in
  let submits =
    Array.to_list
      (Array.mapi (fun i j -> (float_of_int i *. 40.0, submit_of j)) w.jobs)
  in
  let cancels =
    [
      (85.0, Svc.Protocol.Cancel { id = 1 });
      (130.0, Svc.Protocol.Cancel { id = 999 });
    ]
  in
  let faults =
    if not faulty then []
    else
      [
        (200.0, Svc.Protocol.Fault { kind = Fail; target = Node 5 });
        (810.0, Svc.Protocol.Fault { kind = Repair; target = Node 5 });
        (350.0, Svc.Protocol.Fault { kind = Fail; target = Leaf_switch 1 });
        (1400.0, Svc.Protocol.Fault { kind = Repair; target = Leaf_switch 1 });
      ]
  in
  let ops =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (submits @ cancels @ faults)
  in
  ops @ [ (float_of_int n_jobs *. 40.0 +. 10.0, Svc.Protocol.Drain) ]

(* The daemon's journaled path, minus the socket: recover whatever the
   directory holds, then admit -> append -> apply the remainder of the
   script, checkpointing every [ckpt_every] ops.  Total for any prefix
   of prior progress, so the same call is the crashing child, the
   recovering parent, and the uncrashed reference. *)
let drive ~dir ~p ~ops ~ckpt_every =
  match Svc.Daemon.recover ~params:p ~dir () with
  | Error m -> Alcotest.failf "recover: %s" m
  | Ok (core, wal, _report) ->
      let next = Svc.Core.last_seq core + 1 in
      List.iteri
        (fun seq (at, req) ->
          if seq >= next then begin
            let stamp = Float.max at (Svc.Core.now core) in
            match Svc.Core.admit core ~stamp req with
            | Error m -> Alcotest.failf "admit seq %d: %s" seq m
            | Ok op ->
                let fields = Svc.Core.fields_of_op ~stamp ~rid:None op in
                let seq' = Svc.Wal.append wal fields in
                Alcotest.(check int) "wal seq tracks script" seq seq';
                ignore (Svc.Core.apply core ~seq ~rid:None ~stamp op);
                if ckpt_every > 0 && (seq + 1) mod ckpt_every = 0 then begin
                  let path =
                    Filename.concat dir (Svc.Daemon.ckpt_name seq)
                  in
                  if Svc.Core.checkpoint core ~path then Svc.Wal.rotate wal
                end
          end)
        ops;
      Svc.Wal.close wal;
      core

let drained_fingerprint core =
  match Svc.Core.fingerprint core with
  | Some fp -> fp
  | None -> Alcotest.fail "script ended undrained"

let reference_fingerprint ~p ~ops ~ckpt_every =
  with_tmpdir (fun dir -> drained_fingerprint (drive ~dir ~p ~ops ~ckpt_every))

(* ------------------------------------------------------------------ *)
(* Core determinism: checkpoint mid-stream + replay == one shot         *)
(* ------------------------------------------------------------------ *)

let test_core_replay_equivalence () =
  List.iter
    (fun (alloc : Sched.Allocator.t) ->
      List.iter
        (fun faulty ->
          let p = params ~scheme:alloc.name ~faulty () in
          let ops = mk_ops ~n_jobs:18 ~faulty in
          (* No checkpoints: pure WAL replay from genesis. *)
          let a = reference_fingerprint ~p ~ops ~ckpt_every:0 in
          (* Checkpoint every 4 ops: recovery = snapshot + short replay. *)
          let b = reference_fingerprint ~p ~ops ~ckpt_every:4 in
          (* Same directory driven twice: the second drive recovers a
             finished run and must see the same drained result. *)
          let c =
            with_tmpdir (fun dir ->
                ignore (drive ~dir ~p ~ops ~ckpt_every:5);
                drained_fingerprint (drive ~dir ~p ~ops ~ckpt_every:5))
          in
          let name suffix =
            Printf.sprintf "%s%s %s" alloc.name
              (if faulty then " faulty" else "")
              suffix
          in
          Alcotest.(check string) (name "ckpt path") a b;
          Alcotest.(check string) (name "re-recover") a c)
        [ false; true ])
    Sched.Allocator.all

(* ------------------------------------------------------------------ *)
(* Crash injection: kill -9 at armed points, recover, compare            *)
(* ------------------------------------------------------------------ *)

let crash_points =
  [ "wal-torn"; "wal-pre-fsync"; "wal-post-fsync"; "post-apply"; "ckpt-post-save" ]

(* Fork a child that drives the script with [point:count] armed; it
   SIGKILLs itself at that instruction (or finishes, if the count
   overshoots — an admissible, vacuous trial).  The parent then
   recovers the directory and finishes the script in-process. *)
let crash_trial ~p ~ops ~ckpt_every ~point ~count ~expected =
  with_tmpdir (fun dir ->
      (match Unix.fork () with
      | 0 ->
          Unix.putenv "JIGSAW_SVC_CRASH" (Printf.sprintf "%s:%d" point count);
          (try ignore (drive ~dir ~p ~ops ~ckpt_every) with _ -> ());
          Unix._exit 0
      | pid -> (
          match Unix.waitpid [] pid with
          | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
          | _, Unix.WEXITED 0 -> () (* count overshot: ran to completion *)
          | _, st ->
              Alcotest.failf "%s:%d child ended oddly (%s)" point count
                (match st with
                | Unix.WEXITED n -> Printf.sprintf "exit %d" n
                | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
                | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)));
      let core = drive ~dir ~p ~ops ~ckpt_every in
      Alcotest.(check string)
        (Printf.sprintf "recover after %s:%d" point count)
        expected
        (drained_fingerprint core))

let test_crash_every_point () =
  (* Jigsaw, faulty: every point, early and late occurrences. *)
  let p = params ~faulty:true () in
  let ops = mk_ops ~n_jobs:14 ~faulty:true in
  let expected = reference_fingerprint ~p ~ops ~ckpt_every:4 in
  List.iter
    (fun point ->
      List.iter
        (fun count -> crash_trial ~p ~ops ~ckpt_every:4 ~point ~count ~expected)
        [ 1; 3 ])
    crash_points

(* Resize ops through the journaled path: moldable submissions, one
   resize the engine grants, one it refuses (unknown job).  Both are
   journaled — a refusal is a deterministic verdict, not an error — so
   recovery from a kill -9 landing on either must replay to the
   uncrashed fingerprint. *)
let test_resize_crash_recovery () =
  let p = params ~faulty:true () in
  let w =
    Trace.Workload.moldable
      (Trace.Synthetic.synth ~mean_size:16 ~n_jobs:10 ~seed:42 ~max_size:128)
  in
  let submits =
    Array.to_list
      (Array.mapi (fun i j -> (float_of_int i *. 40.0, submit_of j)) w.jobs)
  in
  let resizes =
    [
      (90.0,
       Svc.Protocol.Resize { id = 0; size = Trace.Job.min_size w.jobs.(0) });
      (130.0, Svc.Protocol.Resize { id = 999; size = 4 });
    ]
  in
  let ops =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (submits @ resizes)
    @ [ (500.0, Svc.Protocol.Drain) ]
  in
  let resize_counts =
    List.mapi (fun i (_, op) -> (i, op)) ops
    |> List.filter (fun (_, op) ->
           match op with Svc.Protocol.Resize _ -> true | _ -> false)
    |> List.map (fun (i, _) -> i + 1)
  in
  let expected = reference_fingerprint ~p ~ops ~ckpt_every:3 in
  List.iter
    (fun point ->
      let counts =
        if point = "ckpt-post-save" then [ 1; 2 ] else resize_counts
      in
      List.iter
        (fun count ->
          crash_trial ~p ~ops ~ckpt_every:3 ~point ~count ~expected)
        counts)
    crash_points

let test_crash_random_all_schemes () =
  let prng = Sim.Prng.create ~seed:23 in
  List.iter
    (fun (alloc : Sched.Allocator.t) ->
      List.iter
        (fun faulty ->
          let p = params ~scheme:alloc.name ~faulty () in
          let ops = mk_ops ~n_jobs:12 ~faulty in
          let n_ops = List.length ops in
          let expected = reference_fingerprint ~p ~ops ~ckpt_every:5 in
          for _ = 1 to 3 do
            let point =
              List.nth crash_points
                (Sim.Prng.int prng ~bound:(List.length crash_points))
            in
            let count =
              if point = "ckpt-post-save" then
                1 + Sim.Prng.int prng ~bound:2
              else 1 + Sim.Prng.int prng ~bound:(n_ops - 1)
            in
            crash_trial ~p ~ops ~ckpt_every:5 ~point ~count ~expected
          done)
        [ false; true ])
    Sched.Allocator.all

(* ------------------------------------------------------------------ *)
(* Checkpoint corruption: fall back to an older snapshot, or genesis     *)
(* ------------------------------------------------------------------ *)

let checkpoint_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 5
         && String.sub f 0 5 = "ckpt-"
         && Filename.check_suffix f ".jsonl")
  |> List.sort (fun a b -> compare b a)

let clobber path =
  let st = Unix.stat path in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (st.st_size / 2) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "XXXX" 0 4);
  Unix.close fd

let test_checkpoint_fallback () =
  let p = params ~faulty:true () in
  let ops = mk_ops ~n_jobs:14 ~faulty:true in
  let expected = reference_fingerprint ~p ~ops ~ckpt_every:0 in
  with_tmpdir (fun dir ->
      ignore (drive ~dir ~p ~ops ~ckpt_every:4);
      (match checkpoint_files dir with
      | newest :: _ :: _ ->
          (* Corrupt the newest: recovery must step back to the next
             one and replay a longer WAL suffix. *)
          clobber (Filename.concat dir newest)
      | _ -> Alcotest.fail "expected at least two checkpoints");
      Alcotest.(check string) "older ckpt + longer replay" expected
        (drained_fingerprint (drive ~dir ~p ~ops ~ckpt_every:4));
      (* Corrupt every checkpoint: recovery must replay the WAL from
         genesis and still land on the same state. *)
      List.iter
        (fun f -> clobber (Filename.concat dir f))
        (checkpoint_files dir);
      Alcotest.(check string) "all ckpts dead -> full replay" expected
        (drained_fingerprint (drive ~dir ~p ~ops ~ckpt_every:4)))

(* ------------------------------------------------------------------ *)
(* Configuration: one resolver, canonical params                       *)
(* ------------------------------------------------------------------ *)

(* A scenario given as typed ("10", canonically "10%") must not hide the
   checkpoints from recovery.  When the WAL header kept the spelling and
   the checkpoint the canonical name, recovery skipped every checkpoint
   as disagreeing with the WAL, and once the WAL was GC'd it failed as
   unrecoverable.  Headers written now hold canonical names; headers an
   older daemon wrote still hold "10" and must recover all the same. *)
let test_scenario_spelling () =
  let p = { (params ()) with scenario = "10" } in
  let ops = List.filteri (fun i _ -> i < 9) (mk_ops ~n_jobs:12 ~faulty:false) in
  List.iter
    (fun older_header ->
      with_tmpdir (fun dir ->
          let core, wal =
            if older_header then
              match Svc.Core.create p with
              | Error m -> Alcotest.fail m
              | Ok core ->
                  ( core,
                    Svc.Wal.create ~dir ~config:(Svc.Core.params_to_fields p)
                      ~start_seq:0 )
            else
              match Svc.Daemon.recover ~params:p ~dir () with
              | Error m -> Alcotest.fail m
              | Ok (core, wal, _) -> (core, wal)
          in
          (* The daemon's checkpoint step every third op: checkpoint,
             rotate, keep the two newest checkpoints and GC the WAL
             segments only the pruned ones needed. *)
          let kept = ref [] in
          List.iteri
            (fun seq (at, req) ->
              let stamp = Float.max at (Svc.Core.now core) in
              match Svc.Core.admit core ~stamp req with
              | Error m -> Alcotest.failf "admit seq %d: %s" seq m
              | Ok op ->
                  ignore
                    (Svc.Wal.append wal
                       (Svc.Core.fields_of_op ~stamp ~rid:None op));
                  ignore (Svc.Core.apply core ~seq ~rid:None ~stamp op);
                  let path = Filename.concat dir (Svc.Daemon.ckpt_name seq) in
                  if seq mod 3 = 2 && Svc.Core.checkpoint core ~path then begin
                    Svc.Wal.rotate wal;
                    let retained, pruned =
                      match seq :: !kept with
                      | a :: b :: rest -> ([ a; b ], rest)
                      | l -> (l, [])
                    in
                    List.iter
                      (fun s ->
                        Sys.remove
                          (Filename.concat dir (Svc.Daemon.ckpt_name s)))
                      pruned;
                    kept := retained;
                    let oldest = List.nth retained (List.length retained - 1) in
                    ignore (Svc.Wal.gc ~dir ~keep_from:(oldest + 1))
                  end)
            ops;
          Svc.Wal.close wal;
          let name m =
            Printf.sprintf "%s (%s header)" m
              (if older_header then "as typed" else "canonical")
          in
          match Svc.Daemon.recover ~dir () with
          | Error m -> Alcotest.failf "%s: %s" (name "recover") m
          | Ok (core, wal, report) ->
              Svc.Wal.close wal;
              Alcotest.(check bool)
                (name "newest checkpoint restored")
                true
                (List.mem "restored checkpoint at seq 8" report);
              Alcotest.(check int) (name "last seq") 8 (Svc.Core.last_seq core);
              Alcotest.(check string)
                (name "canonical scenario")
                "10%" (Svc.Core.params core).scenario))
    [ false; true ]

(* What the daemon CLI does with its flags on a fresh state directory. *)
let run_daemon_fresh ~dir p =
  Svc.Daemon.run
    {
      (Svc.Daemon.default_opts ~socket:(Filename.concat dir "sock")
         ~dir:(Filename.concat dir "state"))
      with
      params = Some p;
    }

let test_bad_radix () =
  let p = { (params ()) with radix = 7 } in
  (match Svc.Core.create p with
  | Ok _ -> Alcotest.fail "Core.create accepted radix 7"
  | Error _ -> ());
  with_tmpdir (fun dir ->
      (match run_daemon_fresh ~dir p with
      | Ok () -> Alcotest.fail "the daemon served radix 7"
      | Error _ -> ());
      Alcotest.(check bool)
        "a refused start leaves no WAL" false
        (Array.exists
           (String.starts_with ~prefix:"wal-")
           (Sys.readdir (Filename.concat dir "state")));
      Svc.Wal.close
        (Svc.Wal.create ~dir ~config:(Svc.Core.params_to_fields p)
           ~start_seq:0);
      match Svc.Daemon.recover ~dir () with
      | Ok _ -> Alcotest.fail "recovered a WAL header with radix 7"
      | Error m ->
          Alcotest.(check bool)
            "the error names the WAL header" true
            (String.starts_with ~prefix:"WAL header: " m))

(* Resolving params and reading them back off the live simulation gives
   the canonical names, and is the identity from then on.  A name no
   resolver knows is an [Error] wherever params come in. *)
let test_params_roundtrip () =
  let resolve_back p =
    match Sched.Simulator.resolve p with
    | Error m -> Alcotest.failf "%s/%s: %s" p.scheme p.scenario m
    | Ok (cfg, w) -> Sched.Simulator.params (Sched.Simulator.start cfg w)
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun (spelling, canonical) ->
          let p = { (params ~scheme ()) with scenario = spelling } in
          let once = resolve_back p in
          let name = Printf.sprintf "%s/%s" scheme spelling in
          Alcotest.(check bool)
            (name ^ " reads back canonical")
            true
            (once = { p with scenario = canonical });
          Alcotest.(check bool)
            (name ^ " second round trip")
            true
            (resolve_back once = once))
        [
          ("None", "None");
          ("V2", "V2");
          ("Random", "Random");
          ("10", "10%");
          ("10%", "10%");
          ("010", "10%");
        ])
    Sched.Allocator.valid_names;
  let snap =
    match Sched.Simulator.resolve (params ()) with
    | Error m -> Alcotest.fail m
    | Ok (cfg, w) -> Sched.Simulator.snapshot (Sched.Simulator.start cfg w)
  in
  List.iter
    (fun (bad : Svc.Core.params) ->
      let name = Printf.sprintf "%s/%s" bad.scheme bad.scenario in
      (match Svc.Core.create bad with
      | Ok _ -> Alcotest.failf "Core.create accepted %s" name
      | Error _ -> ());
      with_tmpdir (fun dir ->
          let path = Filename.concat dir "ckpt.jsonl" in
          Sched.Checkpoint.save ~path { snap with params = bad };
          (match Sched.Checkpoint.restore ~path () with
          | Ok _ -> Alcotest.failf "Checkpoint.restore accepted %s" name
          | Error _ -> ());
          match run_daemon_fresh ~dir bad with
          | Ok () -> Alcotest.failf "the daemon served %s" name
          | Error _ -> ()))
    [
      { (params ()) with scheme = "Nope" };
      { (params ()) with scenario = "Sometimes" };
    ]

(* ------------------------------------------------------------------ *)
(* Live daemon over a socket                                           *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

(* Blocking line reader over a raw fd. *)
let line_reader fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec next () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i ->
        let s = Buffer.contents buf in
        let line = String.sub s 0 i in
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        line
    | None ->
        let n = Unix.read fd chunk 0 4096 in
        if n = 0 then Alcotest.fail "daemon closed the connection";
        Buffer.add_subbytes buf chunk 0 n;
        next ()
  in
  next

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.sleepf 0.02;
        go (tries - 1)
  in
  go 250

let with_daemon ~p f =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "s" in
      match Unix.fork () with
      | 0 ->
          let opts =
            {
              (Svc.Daemon.default_opts ~socket:sock
                 ~dir:(Filename.concat dir "state"))
              with
              params = Some p;
              ckpt_every_ops = 6;
            }
          in
          (try ignore (Svc.Daemon.run opts) with _ -> ());
          Unix._exit 0
      | pid ->
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid))
            (fun () -> f sock pid))

let rpc fd read line =
  write_all fd (line ^ "\n");
  Obs.Json.parse_line (read ())

let test_daemon_socket_parity () =
  (* Ops submitted over the wire must drain to the same fingerprint the
     in-process drive produces — the socket adds no nondeterminism. *)
  let p = params ~faulty:true () in
  let ops = mk_ops ~n_jobs:12 ~faulty:true in
  let expected = reference_fingerprint ~p ~ops ~ckpt_every:0 in
  with_daemon ~p (fun sock _pid ->
      let fd = connect sock in
      let read = line_reader fd in
      let fp = ref "" in
      List.iter
        (fun (at, req) ->
          let line =
            Svc.Protocol.request_line
              { rid = None; at = Some at; version = 1; req }
          in
          let reply = rpc fd read (String.trim line) in
          Alcotest.(check (float 0.0)) "ok" 1.0 (Obs.Json.num reply "ok");
          if Obs.Json.mem reply "fingerprint" then
            fp := Obs.Json.str reply "fingerprint")
        ops;
      Alcotest.(check string) "socket == in-process" expected !fp;
      (* Checkpoints every 6 ops: the later ones copy the earlier ones'
         job rows. *)
      let stats = rpc fd read {|{"op":"stats"}|} in
      let count k = Obs.Json.int stats k in
      Alcotest.(check bool) "checkpoints written" true
        (count "checkpoints_written" >= 2);
      Alcotest.(check bool) "rows encoded" true (count "ckpt_rows_encoded" > 0);
      Alcotest.(check bool) "rows reused" true (count "ckpt_rows_reused" > 0);
      Unix.close fd)

let test_daemon_survives_fuzz () =
  let p = params () in
  with_daemon ~p (fun sock pid ->
      let prng = Sim.Prng.create ~seed:5 in
      let fd = connect sock in
      let read = line_reader fd in
      for i = 1 to 300 do
        let len = Sim.Prng.int prng ~bound:200 in
        let junk =
          String.init len (fun _ ->
              match Char.chr (Sim.Prng.int prng ~bound:256) with
              | '\n' -> ' '
              | c -> c)
        in
        write_all fd (junk ^ "\n");
        (* Every line gets exactly one reply; malformed ones must be
           typed errors, never silence or a dead reactor. *)
        let reply = Obs.Json.parse_line (read ()) in
        if Obs.Json.num reply "ok" = 0.0 then
          Alcotest.(check bool)
            (Printf.sprintf "typed error %d" i)
            true
            (Obs.Json.mem reply "error")
      done;
      (* The reactor is still serving. *)
      let pong = rpc fd read "{\"op\":\"ping\",\"rid\":\"alive\"}" in
      Alcotest.(check (float 0.0)) "pong" 1.0 (Obs.Json.num pong "ok");
      Alcotest.(check string) "rid echo" "alive" (Obs.Json.str pong "rid");
      Unix.kill pid 0 (* still alive *);
      Unix.close fd)

let test_daemon_rejects_oversize_line () =
  let p = params () in
  with_daemon ~p (fun sock _pid ->
      let fd = connect sock in
      let read = line_reader fd in
      write_all fd (String.make 70_000 'a');
      (* 70 000 > max_line without a newline: rejected mid-stream. *)
      let reply = Obs.Json.parse_line (read ()) in
      Alcotest.(check (float 0.0)) "rejected" 0.0 (Obs.Json.num reply "ok");
      Alcotest.(check string) "parse error" "parse"
        (Obs.Json.str reply "error");
      Unix.close fd;
      (* A fresh connection still works. *)
      let fd2 = connect sock in
      let read2 = line_reader fd2 in
      let pong = rpc fd2 read2 "{\"op\":\"ping\"}" in
      Alcotest.(check (float 0.0)) "fresh pong" 1.0 (Obs.Json.num pong "ok");
      Unix.close fd2)

let test_daemon_rid_dedup () =
  let p = params () in
  with_daemon ~p (fun sock _pid ->
      let fd = connect sock in
      let read = line_reader fd in
      let line =
        "{\"op\":\"submit\",\"size\":4,\"runtime\":100,\"rid\":\"once\"}"
      in
      let r1 = rpc fd read line in
      let r2 = rpc fd read line in
      Alcotest.(check (float 0.0)) "first ok" 1.0 (Obs.Json.num r1 "ok");
      Alcotest.(check (float 0.0)) "retry ok" 1.0 (Obs.Json.num r2 "ok");
      Alcotest.(check (float 0.0))
        "retry suppressed, same seq" (Obs.Json.num r1 "seq")
        (Obs.Json.num r2 "seq");
      Alcotest.(check (float 0.0)) "flagged duplicate" 1.0
        (Obs.Json.num r2 "duplicate");
      let st = rpc fd read "{\"op\":\"status\"}" in
      Alcotest.(check (float 0.0)) "only one op journaled" 0.0
        (Obs.Json.num st "seq");
      Unix.close fd)

(* The daemon's [svc/apply] span times [Core.apply] alone, in
   nanoseconds like every span.  This process serves under its own
   registry while a forked client submits three jobs and shuts the
   daemon down; a client that fails stops the daemon with SIGTERM and
   exits 1. *)
let test_daemon_apply_span () =
  let p = params () in
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "s" in
      match Unix.fork () with
      | 0 ->
          let code =
            try
              let fd = connect sock in
              let read = line_reader fd in
              let ok line =
                if Obs.Json.num (rpc fd read line) "ok" <> 1.0 then
                  failwith line
              in
              for i = 1 to 3 do
                ok
                  (Printf.sprintf
                     {|{"op":"submit","size":4,"runtime":100,"rid":"a%d"}|} i)
              done;
              ok {|{"op":"shutdown"}|};
              0
            with _ ->
              Unix.kill (Unix.getppid ()) Sys.sigterm;
              1
          in
          Unix._exit code
      | pid ->
          let prof = Obs.Prof.create () in
          let r =
            Svc.Daemon.run ~prof
              {
                (Svc.Daemon.default_opts ~socket:sock
                   ~dir:(Filename.concat dir "state"))
                with
                params = Some p;
              }
          in
          if Result.is_error r then (
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          let _, status = Unix.waitpid [] pid in
          (match r with Ok () -> () | Error m -> Alcotest.fail m);
          Alcotest.(check bool) "client exited 0" true (status = WEXITED 0);
          match Obs.Prof.find_span prof "svc/apply" with
          | None -> Alcotest.fail "no svc/apply span"
          | Some v ->
              Alcotest.(check int) "one span per submit" 3 v.sp_count;
              Alcotest.(check bool)
                (Printf.sprintf "mean %g ns is in nanoseconds" v.sp_mean_ns)
                true (v.sp_mean_ns >= 100.0))

(* ------------------------------------------------------------------ *)
(* Sweep interruption                                                   *)
(* ------------------------------------------------------------------ *)

let test_sweep_interrupt_resume () =
  let w = Trace.Synthetic.synth ~mean_size:16 ~n_jobs:25 ~seed:9 ~max_size:128 in
  let cells =
    Array.of_list
      (List.map
         (fun a -> Sched.Sweep.cell (Sched.Simulator.Config.make ~radix a) w)
         Sched.Allocator.all)
  in
  let fresh = Sched.Sweep.run ~jobs:1 cells in
  with_tmpdir (fun dir ->
      let manifest = Filename.concat dir "man.jsonl" in
      (* Stop after the first cell: polled before each start, so cell 0
         runs and journals, cell 1 never begins. *)
      let polls = Atomic.make 0 in
      let should_stop () = Atomic.fetch_and_add polls 1 >= 1 in
      (match Sched.Sweep.run ~jobs:1 ~manifest ~should_stop cells with
      | _ -> Alcotest.fail "expected Interrupted"
      | exception Sched.Sweep.Interrupted -> ());
      (match Sched.Sweep.load_manifest manifest with
      | Ok m ->
          Alcotest.(check int) "one row journaled" 1 (List.length m.rows);
          Alcotest.(check int) "no corruption" 0 m.corrupt
      | Error m -> Alcotest.failf "manifest unreadable: %s" m);
      let resumed = Sched.Sweep.run ~jobs:1 ~manifest cells in
      Alcotest.(check bool) "cell 0 restored" true resumed.(0).restored;
      Array.iteri
        (fun i (r : Sched.Sweep.result) ->
          Alcotest.(check string)
            (Printf.sprintf "cell %d fingerprint" i)
            (Sched.Metrics.fingerprint fresh.(i).metrics)
            (Sched.Metrics.fingerprint r.metrics))
        resumed)

(* ------------------------------------------------------------------ *)
(* A state directory written by an earlier daemon build                  *)
(* ------------------------------------------------------------------ *)

(* fixtures/svc-state: a radix-8 Jigsaw daemon with shrink recovery
   (--requeue shrink:2), fed raw request lines over its socket — rigid
   and moldable submits, a cancel of a pending job and of an unknown id,
   a refused and a granted resize, fail and repair of a node and of a
   leaf switch, and a drain — alternately with and without a request
   id.  It was killed right after checkpointing at seq 8 and restarted
   for seqs 9-13, so the directory holds that checkpoint and two WAL
   segments.  The drain replied with [svc_fixture_fingerprint]. *)
let svc_fixture_fingerprint = "2af205fa199b42c5977094b2bcd2c597"

let svc_fixture () =
  (* The suite runs from test/ under runtest and from the build root
     under @validate. *)
  List.find Sys.file_exists [ "fixtures/svc-state"; "test/fixtures/svc-state" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fixture_files prefix =
  let dir = svc_fixture () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (String.starts_with ~prefix)
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_fixture_state_dir () =
  (* Recovery opens a fresh WAL segment, so it runs on a copy. *)
  with_tmpdir (fun dir ->
      List.iter
        (fun path ->
          Out_channel.with_open_bin
            (Filename.concat dir (Filename.basename path))
            (fun oc -> output_string oc (read_file path)))
        (fixture_files "");
      match Svc.Daemon.recover ~dir () with
      | Error m -> Alcotest.failf "recover: %s" m
      | Ok (core, wal, _) ->
          Svc.Wal.close wal;
          Alcotest.(check string)
            "recovered fingerprint" svc_fixture_fingerprint
            (drained_fingerprint core));
  (* Every WAL line re-encodes byte for byte: segment headers through
     the config row, op lines through the op rows. *)
  let ops = ref 0 in
  List.iter
    (fun path ->
      List.iter
        (fun line ->
          let fields = Obs.Json.parse_line line in
          let first n = List.filteri (fun i _ -> i < n) fields in
          let reencoded =
            match Obs.Json.str fields "record" with
            | "jigsaw-wal" -> (
                match Svc.Core.params_of_fields fields with
                | Ok p -> first 3 @ Svc.Core.params_to_fields p
                | Error m -> Alcotest.failf "%s: %s" path m)
            | _ -> (
                incr ops;
                match Svc.Core.op_of_fields fields with
                | Ok (stamp, rid, op) ->
                    first 2 @ Svc.Core.fields_of_op ~stamp ~rid op
                | Error m -> Alcotest.failf "%s: %s" path m)
          in
          Alcotest.(check string)
            (Filename.basename path ^ " line") (line ^ "\n")
            (Svc.Wal.line_of reencoded))
        (In_channel.with_open_bin path In_channel.input_lines))
    (fixture_files "wal-");
  Alcotest.(check int) "op lines" 14 !ops;
  (* The daemon checkpoint re-saves byte for byte, header meta included. *)
  List.iter
    (fun path ->
      match Sched.Checkpoint.load_ext ~path with
      | Error m -> Alcotest.fail m
      | Ok (snap, header) ->
          with_tmpdir (fun dir ->
              let copy = Filename.concat dir "ckpt.jsonl" in
              Sched.Checkpoint.save
                ~meta:[ ("x_svc_seq", List.assoc "x_svc_seq" header) ]
                ~path:copy snap;
              Alcotest.(check string)
                "checkpoint re-saved byte for byte" (read_file path)
                (read_file copy)))
    (fixture_files "ckpt-")

(* ------------------------------------------------------------------ *)
(* Incremental checkpoint encoding                                      *)
(* ------------------------------------------------------------------ *)

(* Admit and apply one request at the later of [at] and the clock;
   requests admission refuses are skipped. *)
let apply_req core seq ~at req =
  let stamp = Float.max at (Svc.Core.now core) in
  match Svc.Core.admit core ~stamp req with
  | Error _ -> ()
  | Ok op ->
      ignore (Svc.Core.apply core ~seq:!seq ~rid:None ~stamp op);
      incr seq

let test_checkpoint_rows_counted () =
  with_tmpdir (fun dir ->
      let core =
        match Svc.Core.create (params ()) with
        | Ok c -> c
        | Error m -> Alcotest.fail m
      in
      let seq = ref 0 in
      let ops = mk_ops ~n_jobs:10 ~faulty:false in
      List.iter
        (fun (at, req) ->
          if req <> Svc.Protocol.Drain then apply_req core seq ~at req)
        ops;
      let path = Filename.concat dir "ckpt.jsonl" in
      let checkpoint () =
        Alcotest.(check bool) "written" true (Svc.Core.checkpoint core ~path)
      in
      let rows kind = List.assoc kind (Svc.Core.checkpoint_rows core) in
      let encoded kind = fst (rows kind) in
      checkpoint ();
      Alcotest.(check (pair int int)) "first: every job row encoded" (10, 0)
        (rows "job");
      checkpoint ();
      Alcotest.(check int) "no op: no job row encoded" 0 (encoded "job");
      Alcotest.(check int) "no op: no run row encoded" 0 (encoded "run");
      Alcotest.(check bool) "some job runs" true (snd (rows "run") > 0);
      apply_req core seq ~at:0.0 (snd (List.hd ops));
      checkpoint ();
      Alcotest.(check int) "one submit: one job row encoded" 1 (encoded "job"))

(* The checkpoint property: whatever the memo saw before, a save through
   it writes the bytes a save through a fresh memo writes.  Random op
   sequences on a daemon with requeue and shrink recovery: rigid and
   moldable submits, cancels, resizes, fails and repairs, clock
   advances, with checkpoints between them.  At each checkpoint the
   daemon's file (its own memo) and a save through the test's memo must
   equal a fresh save of the same snapshot, and so must the snapshot's
   signed-zero twin through the test's memo: the same rows, keys and
   allocations, with every zero time in the event, running and finished
   rows negated, which prints differently ("-0"). *)
type action =
  | Submit of int * float * bool  (* size, runtime, moldable *)
  | Cancel of int  (* index among the submitted jobs *)
  | Resize of int * int  (* index among the submitted jobs, size *)
  | Fault of Trace.Faults.kind * Trace.Faults.target
  | Advance of float
  | Checkpoint

let pp_action = function
  | Submit (n, rt, m) -> Printf.sprintf "submit %d %h%s" n rt (if m then " moldable" else "")
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Resize (i, n) -> Printf.sprintf "resize #%d %d" i n
  | Fault (k, t) ->
      Printf.sprintf "%s %s %d" (Trace.Faults.kind_name k)
        (Trace.Faults.target_name t) (Trace.Faults.target_id t)
  | Advance dt -> Printf.sprintf "advance %h" dt
  | Checkpoint -> "checkpoint"

let gen_action =
  let open QCheck2.Gen in
  let target =
    oneof
      [ map (fun n -> Trace.Faults.Node n) (int_bound 7);
        map (fun l -> Trace.Faults.Leaf_switch l) (int_bound 3) ]
  in
  frequency
    [
      (5, map3 (fun n rt m -> Submit (n, rt, m)) (int_range 1 48)
            (float_range 10.0 400.0) bool);
      (1, map (fun i -> Cancel i) nat);
      (2, map2 (fun i n -> Resize (i, n)) nat (int_range 1 64));
      (1, map (fun t -> Fault (Trace.Faults.Fail, t)) target);
      (1, map (fun t -> Fault (Trace.Faults.Repair, t)) target);
      (2, map (fun dt -> Advance dt) (float_range 1.0 300.0));
      (2, pure Checkpoint);
    ]

(* Every zero time in the event, running and finished rows, sign
   flipped. *)
let signed_zero_twin (s : Sched.Simulator.Snapshot.t) =
  let flip x = if x = 0.0 then -.x else x in
  { s with
    events =
      Array.map
        (fun (e : Sched.Simulator.Snapshot.event) ->
          { e with ev_time = flip e.ev_time })
        s.events;
    running =
      Array.map
        (fun (r : Sched.Simulator.Snapshot.running_job) ->
          { r with rs_start = flip r.rs_start; rs_end = flip r.rs_end;
                   rs_est_end = flip r.rs_est_end })
        s.running;
    finished =
      Array.map
        (fun (f : Sched.Simulator.Snapshot.finished_job) ->
          { f with fs_start = flip f.fs_start; fs_end = flip f.fs_end })
        s.finished }

let checkpoint_bytes_hold actions =
  with_tmpdir (fun dir ->
      let p =
        { (params ()) with resilience = { requeue_policy with shrink = true } }
      in
      let core =
        match Svc.Core.create p with Ok c -> c | Error m -> failwith m
      in
      let memo = Sched.Checkpoint.memo () in
      let path = Filename.concat dir "ckpt.jsonl" in
      let seq = ref 0 and submitted = ref 0 in
      let apply req = apply_req core seq ~at:(Svc.Core.now core) req in
      let checkpoint () =
        (not (Svc.Core.checkpoint core ~path))
        ||
        let meta = Svc.Core.checkpoint_meta core in
        let same s =
          let fresh = Sched.Checkpoint.encode ~meta s in
          String.equal (Sched.Checkpoint.encode ~memo ~meta s) fresh
        in
        let s = Svc.Core.snapshot core in
        String.equal (read_file path) (Sched.Checkpoint.encode ~meta s)
        && same s
        && same (signed_zero_twin s)
      in
      List.for_all
        (fun a ->
          match a with
          | Submit (size, runtime, moldable) ->
              let range = if moldable then Some (max 1 (size / 2)) else None in
              apply
                (Svc.Protocol.Submit
                   { id = Some !submitted; size; runtime;
                     min_size = range;
                     max_size = Option.map (fun _ -> min 128 (2 * size)) range;
                     est_runtime = None; bw_class = None });
              incr submitted;
              true
          | Cancel i ->
              apply (Svc.Protocol.Cancel { id = i mod !submitted });
              true
          | Resize (i, size) ->
              apply (Svc.Protocol.Resize { id = i mod !submitted; size });
              true
          | Fault (kind, target) ->
              apply (Svc.Protocol.Fault { kind; target });
              true
          | Advance dt ->
              Svc.Core.advance core (Svc.Core.now core +. dt);
              true
          | Checkpoint -> checkpoint ())
        (* A first job starts at time 0, so zero times occur. *)
        ((Submit (16, 250.5, false) :: actions) @ [ Checkpoint ]))

let prop_checkpoint_bytes =
  QCheck2.Test.make ~name:"warm-memo checkpoints equal fresh saves" ~count:150
    ~print:(fun l -> String.concat "; " (List.map pp_action l))
    QCheck2.Gen.(list_size (int_range 1 40) gen_action)
    checkpoint_bytes_hold

(* ------------------------------------------------------------------ *)
(* Client wire bytes                                                    *)
(* ------------------------------------------------------------------ *)

(* The request lines jigsaw-client sends, byte for byte: a stand-in
   daemon accepts one connection, answers every line with [{"ok":1}]
   and records it until the client hangs up.  The [--play] submit's
   field order is also what load generators outside this suite write. *)
let client_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "jigsaw_client.exe" ]

let client_lines args =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "s" in
      let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close lfd)
        (fun () ->
          Unix.bind lfd (Unix.ADDR_UNIX sock);
          Unix.listen lfd 1;
          let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          let pid =
            Unix.create_process client_exe
              (Array.of_list
                 ("jigsaw-client" :: "--socket" :: sock :: "--retries" :: "0"
                 :: args))
              Unix.stdin null null
          in
          Unix.close null;
          (match Unix.select [ lfd ] [] [] 10.0 with
          | [], _, _ ->
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              Alcotest.failf "client never connected (%s)"
                (String.concat " " args)
          | _ -> ());
          let fd, _ = Unix.accept lfd in
          let ic = Unix.in_channel_of_descr fd in
          (* A client that sends without awaiting the reply ([--crash
             now]) may hang up before it: the reset ends the stream. *)
          let rec loop acc =
            match In_channel.input_line ic with
            | None | (exception Sys_error _) -> List.rev acc
            | Some line ->
                (try write_all fd "{\"ok\":1}\n"
                 with Unix.Unix_error _ -> ());
                loop (line :: acc)
          in
          let lines = loop [] in
          close_in ic;
          ignore (Unix.waitpid [] pid);
          lines))

let test_client_request_bytes () =
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_pipe)
  @@ fun () ->
  List.iter
    (fun (args, expected) ->
      Alcotest.(check (list string)) (String.concat " " args) expected
        (client_lines args))
    [
      ([ "--ping"; "--rid"; "r1" ], [ {|{"op":"ping","rid":"r1"}|} ]);
      ([ "--status"; "--rid"; "r1" ], [ {|{"op":"status","rid":"r1"}|} ]);
      ([ "--stats"; "--rid"; "r1" ], [ {|{"op":"stats","rid":"r1"}|} ]);
      ([ "--shutdown"; "--rid"; "r1" ], [ {|{"op":"shutdown","rid":"r1"}|} ]);
      ([ "--drain"; "--rid"; "r1" ], [ {|{"op":"drain","rid":"r1"}|} ]);
      ( [ "--advance"; "250.5"; "--rid"; "r1" ],
        [ {|{"op":"advance","to":250.5,"rid":"r1"}|} ] );
      ( [ "--submit"; "64,3600"; "--rid"; "r1" ],
        [ {|{"op":"submit","size":64,"runtime":3600,"rid":"r1"}|} ] );
      ( [ "--submit"; "64,3600,4000"; "--rid"; "r1" ],
        [
          {|{"op":"submit","size":64,"runtime":3600,"est_runtime":4000,"rid":"r1"}|};
        ] );
      ( [ "--submit"; "64,3600,4000,0.5"; "--rid"; "r1"; "--at"; "12.5" ],
        [
          {|{"op":"submit","size":64,"runtime":3600,"est_runtime":4000,"bw":0.5,"at":12.5,"rid":"r1"}|};
        ] );
      ( [ "--submit"; "32,5000"; "--min"; "8"; "--max"; "64"; "--rid"; "r1";
          "--at"; "0" ],
        [
          {|{"op":"submit","size":32,"runtime":5000,"min":8,"max":64,"version":2,"at":0,"rid":"r1"}|};
        ] );
      ( [ "--cancel"; "7"; "--rid"; "r1" ],
        [ {|{"op":"cancel","id":7,"rid":"r1"}|} ] );
      ( [ "--resize"; "0,16"; "--rid"; "r1"; "--at"; "10" ],
        [ {|{"op":"resize","id":0,"size":16,"version":2,"at":10,"rid":"r1"}|} ]
      );
      ( [ "--fail"; "node,12"; "--rid"; "r1"; "--at"; "500" ],
        [ {|{"op":"fail","target":"node","index":12,"at":500,"rid":"r1"}|} ] );
      ( [ "--repair"; "leaf-cable,3"; "--rid"; "r1" ],
        [ {|{"op":"repair","target":"leaf-cable","index":3,"rid":"r1"}|} ] );
      ( [ "--play"; "Synth-16"; "--jobs"; "2" ],
        [
          {|{"op":"submit","id":0,"size":5,"runtime":2565.0965226458393,"est_runtime":2565.0965226458393,"bw":0.125,"at":0,"rid":"play:Synth-16:0"}|};
          {|{"op":"submit","id":1,"size":64,"runtime":150.78825777019233,"est_runtime":150.78825777019233,"bw":0.5,"at":0,"rid":"play:Synth-16:1"}|};
        ] );
      ([ "--crash"; "now" ], [ {|{"op":"crash"}|} ]);
      ( [ "--crash"; "after-wal" ], [ {|{"op":"crash","point":"after-wal"}|} ]);
    ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "wal round-trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal interior corruption" `Quick test_wal_mid_corruption;
    Alcotest.test_case "wal sequence gap" `Quick test_wal_seq_gap;
    Alcotest.test_case "wal gc" `Quick test_wal_gc;
    Alcotest.test_case "wal empty / fully torn" `Quick
      test_wal_empty_and_fully_torn;
    Alcotest.test_case "protocol fuzz never raises" `Quick test_protocol_fuzz;
    Alcotest.test_case "protocol typed errors" `Quick
      test_protocol_typed_errors;
    Alcotest.test_case "protocol versioning" `Quick test_protocol_versioning;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    Alcotest.test_case "core replay equivalence (all schemes)" `Quick
      test_core_replay_equivalence;
    Alcotest.test_case "crash at every point (jigsaw, faulty)" `Quick
      test_crash_every_point;
    Alcotest.test_case "resize ops survive crash recovery" `Quick
      test_resize_crash_recovery;
    Alcotest.test_case "random crashes, all schemes" `Slow
      test_crash_random_all_schemes;
    Alcotest.test_case "corrupt checkpoint fallback" `Quick
      test_checkpoint_fallback;
    Alcotest.test_case "scenario spelling survives recovery" `Quick
      test_scenario_spelling;
    Alcotest.test_case "bad radix is an error" `Quick test_bad_radix;
    Alcotest.test_case "params resolve round-trip" `Quick
      test_params_roundtrip;
    Alcotest.test_case "daemon socket parity" `Quick test_daemon_socket_parity;
    Alcotest.test_case "daemon survives fuzz" `Quick test_daemon_survives_fuzz;
    Alcotest.test_case "daemon rejects oversize line" `Quick
      test_daemon_rejects_oversize_line;
    Alcotest.test_case "daemon rid dedup" `Quick test_daemon_rid_dedup;
    Alcotest.test_case "daemon svc/apply span" `Quick test_daemon_apply_span;
    Alcotest.test_case "client request bytes pinned" `Quick
      test_client_request_bytes;
    Alcotest.test_case "sweep interrupt + resume" `Quick
      test_sweep_interrupt_resume;
    Alcotest.test_case "checkpoint rows encoded and reused" `Quick
      test_checkpoint_rows_counted;
    QCheck_alcotest.to_alcotest prop_checkpoint_bytes;
    Alcotest.test_case "state dir from an earlier build" `Quick
      test_fixture_state_dir;
  ]
