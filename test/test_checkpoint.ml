(* Checkpoint/restore determinism: for arbitrary checkpoint times —
   including between a fault and its repair — checkpoint → restore →
   finish must reproduce the uninterrupted run's fingerprint bit for
   bit, for every scheme, with and without faults.  Plus: file-level
   integrity (corrupted/truncated checkpoints fail loudly) and sweep
   manifest resume (interrupted sweeps complete from their journal). *)

let radix = 8 (* 128 nodes *)

let workload =
  lazy (Trace.Synthetic.synth ~mean_size:16 ~n_jobs:60 ~seed:42 ~max_size:128)

let requeue_policy =
  {
    Sched.Simulator.requeue = true;
    resubmit_delay = 30.0;
    max_retries = 2;
    charge_lost_work = true;
    shrink = false;
  }

(* A fail/repair pair wide enough that checkpoint times strictly
   between them are easy to pick. *)
let fail_at = 400.0
let repair_at = 1400.0

let scripted_faults =
  lazy
    (Trace.Faults.scripted
       [
         { Trace.Faults.time = fail_at; kind = Fail; target = Leaf_switch 0 };
         { Trace.Faults.time = repair_at; kind = Repair; target = Leaf_switch 0 };
         { Trace.Faults.time = 900.0; kind = Fail; target = Node 77 };
         { Trace.Faults.time = 2100.0; kind = Repair; target = Node 77 };
       ])

let cfg ?(faults = Trace.Faults.none)
    ?(resilience = Sched.Simulator.no_resilience) alloc =
  Sched.Simulator.Config.make ~faults ~resilience ~radix alloc

let fingerprint_of cfg w =
  Sched.Metrics.fingerprint (Sched.Simulator.run cfg w)

let with_temp f =
  let path = Filename.temp_file "jigsaw-ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* checkpoint at [t] → write → read back → finish. *)
let fingerprint_via_checkpoint cfg w t =
  with_temp (fun path ->
      let sim = Sched.Simulator.start cfg w in
      Sched.Simulator.run_until sim t;
      Sched.Checkpoint.write ~path sim;
      match Sched.Checkpoint.restore ~path () with
      | Error m -> Alcotest.failf "restore at t=%g failed: %s" t m
      | Ok sim' ->
          let m, _ = Sched.Simulator.finish sim' in
          Sched.Metrics.fingerprint m)

let checkpoint_times prng makespan =
  [ 0.0; makespan +. 10.0 ]
  @ List.init 4 (fun _ -> Sim.Prng.float_in prng ~lo:0.0 ~hi:makespan)

let test_roundtrip_healthy () =
  let w = Lazy.force workload in
  let prng = Sim.Prng.create ~seed:7 in
  List.iter
    (fun alloc ->
      let c = cfg alloc in
      let m = Sched.Simulator.run c w in
      let expected = Sched.Metrics.fingerprint m in
      List.iter
        (fun t ->
          Alcotest.(check string)
            (Printf.sprintf "%s t=%g" alloc.Sched.Allocator.name t)
            expected
            (fingerprint_via_checkpoint c w t))
        (checkpoint_times prng m.makespan))
    Sched.Allocator.all

let test_roundtrip_faulty () =
  let w = Lazy.force workload in
  let faults = Lazy.force scripted_faults in
  let prng = Sim.Prng.create ~seed:11 in
  List.iter
    (fun alloc ->
      let c = cfg ~faults ~resilience:requeue_policy alloc in
      let m = Sched.Simulator.run c w in
      let expected = Sched.Metrics.fingerprint m in
      Alcotest.(check bool)
        (alloc.Sched.Allocator.name ^ ": faults actually fired")
        true (m.fault_events > 0);
      (* The times that stress the fault overlay: strictly between a
         fail and its repair (the degraded machine must rebuild), at the
         fault instants themselves, and a few arbitrary points. *)
      let times =
        [
          (fail_at +. repair_at) /. 2.0;
          fail_at;
          repair_at;
          950.0 (* node 77 down, leaf 0 down *);
        ]
        @ List.init 3 (fun _ -> Sim.Prng.float_in prng ~lo:0.0 ~hi:m.makespan)
      in
      List.iter
        (fun t ->
          Alcotest.(check string)
            (Printf.sprintf "%s faulty t=%g" alloc.Sched.Allocator.name t)
            expected
            (fingerprint_via_checkpoint c w t))
        times)
    Sched.Allocator.all

let test_chained_checkpoints () =
  (* checkpoint → restore → run further → checkpoint again → restore →
     finish: restores compose. *)
  let w = Lazy.force workload in
  let faults = Lazy.force scripted_faults in
  let c = cfg ~faults ~resilience:requeue_policy Sched.Allocator.jigsaw in
  let expected = fingerprint_of c w in
  let fp =
    with_temp (fun p1 ->
        with_temp (fun p2 ->
            let sim = Sched.Simulator.start c w in
            Sched.Simulator.run_until sim 500.0;
            Sched.Checkpoint.write ~path:p1 sim;
            let sim =
              match Sched.Checkpoint.restore ~path:p1 () with
              | Ok s -> s
              | Error m -> Alcotest.failf "first restore: %s" m
            in
            Sched.Simulator.run_until sim 1600.0;
            Sched.Checkpoint.write ~path:p2 sim;
            match Sched.Checkpoint.restore ~path:p2 () with
            | Ok s ->
                let m, _ = Sched.Simulator.finish s in
                Sched.Metrics.fingerprint m
            | Error m -> Alcotest.failf "second restore: %s" m))
  in
  Alcotest.(check string) "chained restores" expected fp

let test_snapshot_file_identity () =
  (* save → load is the identity on snapshots (structural equality). *)
  let w = Lazy.force workload in
  let c =
    cfg
      ~faults:(Lazy.force scripted_faults)
      ~resilience:requeue_policy Sched.Allocator.(lcs ())
  in
  let sim = Sched.Simulator.start c w in
  Sched.Simulator.run_until sim 950.0;
  let s = Sched.Simulator.snapshot sim in
  with_temp (fun path ->
      Sched.Checkpoint.save ~path s;
      match Sched.Checkpoint.load ~path with
      | Error m -> Alcotest.failf "load: %s" m
      | Ok s' ->
          if s <> s' then Alcotest.fail "snapshot changed across save/load")

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: corrupted checkpoint accepted" what
  | Error _ -> ()

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_corruption_fails_loudly () =
  let w = Lazy.force workload in
  let c = cfg Sched.Allocator.jigsaw in
  let sim = Sched.Simulator.start c w in
  Sched.Simulator.run_until sim 700.0;
  with_temp (fun path ->
      Sched.Checkpoint.write ~path sim;
      let original = In_channel.with_open_bin path In_channel.input_all in
      let write s = Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc s)
      in
      (* Sanity: the pristine file loads. *)
      (match Sched.Checkpoint.load ~path with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "pristine checkpoint rejected: %s" m);
      (* Truncation: keep 40% of the bytes. *)
      write (String.sub original 0 (String.length original * 2 / 5));
      expect_error "truncated" (Sched.Checkpoint.load ~path);
      (* Trailer dropped: every record present, no integrity line. *)
      let no_trailer =
        let stop = String.rindex_from original (String.length original - 2) '\n' in
        String.sub original 0 (stop + 1)
      in
      write no_trailer;
      expect_error "no trailer" (Sched.Checkpoint.load ~path);
      (* One flipped byte in the middle of the body. *)
      let flipped = Bytes.of_string original in
      let mid = Bytes.length flipped / 2 in
      Bytes.set flipped mid
        (if Bytes.get flipped mid = '3' then '4' else '3');
      write (Bytes.to_string flipped);
      (match Sched.Checkpoint.load ~path with
      | Ok _ -> Alcotest.fail "bit-flipped checkpoint accepted"
      | Error m ->
          Alcotest.(check bool)
            "error names the integrity check" true (contains m "integrity"));
      (* Not a checkpoint at all. *)
      write "{\"record\":\"something-else\",\"version\":1}\n";
      expect_error "foreign file" (Sched.Checkpoint.load ~path));
  expect_error "missing file"
    (Sched.Checkpoint.load ~path:"/nonexistent/jigsaw.ckpt")

(* ------------------------------------------------------------------ *)
(* Cell ids, metrics round-trip, sweep manifests                       *)
(* ------------------------------------------------------------------ *)

let small_cells () =
  let w1 = Trace.Workload.truncate (Lazy.force workload) 40 in
  let w2 =
    Trace.Synthetic.synth ~mean_size:8 ~n_jobs:40 ~seed:9 ~max_size:128
  in
  let cfg = Sched.Simulator.Config.make ~radix in
  [|
    Sched.Sweep.cell (cfg Sched.Allocator.baseline) w1;
    Sched.Sweep.cell (cfg Sched.Allocator.jigsaw) w1;
    Sched.Sweep.cell ~profile:true (cfg Sched.Allocator.baseline) w2;
    Sched.Sweep.cell
      (Sched.Simulator.Config.make ~faults:(Lazy.force scripted_faults)
         ~resilience:requeue_policy ~radix Sched.Allocator.jigsaw)
      w2;
  |]

let test_cell_ids () =
  let cells = small_cells () in
  let ids = Array.map (fun (c : Sched.Sweep.cell) -> c.id) cells in
  let distinct = List.sort_uniq compare (Array.to_list ids) in
  Alcotest.(check int) "ids distinct" (Array.length cells)
    (List.length distinct);
  (* Stable across reconstruction, independent of the display label and
     of profiling. *)
  let c = cells.(3) in
  let again =
    Sched.Sweep.cell ~label:"something else" ~profile:true
      (Sched.Simulator.Config.make ~faults:(Lazy.force scripted_faults)
         ~resilience:requeue_policy ~radix Sched.Allocator.jigsaw)
      c.workload
  in
  Alcotest.(check string) "id stable" c.id again.id;
  Alcotest.(check string) "id recomputable" c.id (Sched.Sweep.cell_id c);
  Alcotest.(check bool) "fault axis tagged" true
    (c.id <> cells.(1).Sched.Sweep.id)

let test_metrics_manifest_roundtrip () =
  let w = Trace.Workload.truncate (Lazy.force workload) 30 in
  let m = Sched.Simulator.run (cfg (Sched.Allocator.lcs ())) w in
  let row =
    Obs.Row.(
      let+ of_series = Sched.Metrics.row
      and+ series =
        field "series" Sched.Metrics.series (fun (m : Sched.Metrics.t) ->
            m.series)
      in
      of_series series)
  in
  let b = Buffer.create 4096 in
  Obs.Json.write b (Obs.Row.fields row m);
  match Obs.Row.decode row (Obs.Json.parse_line (Buffer.contents b)) with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok m' ->
      Alcotest.(check string) "fingerprint survives the round-trip"
        (Sched.Metrics.fingerprint m)
        (Sched.Metrics.fingerprint m')

let test_sweep_manifest_resume () =
  let cells = small_cells () in
  let baseline = Sched.Sweep.run ~jobs:1 cells in
  let fp (r : Sched.Sweep.result) = Sched.Metrics.fingerprint r.metrics in
  with_temp (fun manifest ->
      Sys.remove manifest;
      (* "Interrupted" sweep: only the first two cells completed. *)
      let partial =
        Sched.Sweep.run ~jobs:1 ~manifest (Array.sub cells 0 2)
      in
      Alcotest.(check bool) "fresh cells not marked restored" true
        (Array.for_all (fun (r : Sched.Sweep.result) -> not r.restored) partial);
      (* Resume over the full grid, in parallel: the two journaled cells
         come back from the file, the rest run. *)
      let resumed = Sched.Sweep.run ~jobs:2 ~manifest cells in
      Alcotest.(check (list bool))
        "restored flags" [ true; true; false; false ]
        (Array.to_list
           (Array.map (fun (r : Sched.Sweep.result) -> r.restored) resumed));
      Array.iteri
        (fun i r ->
          Alcotest.(check string)
            (Printf.sprintf "cell %d fingerprint" i)
            (fp baseline.(i)) (fp r))
        resumed;
      Alcotest.(check bool) "restored profile registry survives" true
        (resumed.(2).prof <> None);
      (* A third run restores everything... *)
      let all_restored = Sched.Sweep.run ~jobs:1 ~manifest cells in
      Alcotest.(check bool) "all restored" true
        (Array.for_all (fun (r : Sched.Sweep.result) -> r.restored) all_restored);
      (* ...and the journal verifies clean. *)
      (match Sched.Sweep.load_manifest manifest with
      | Error m -> Alcotest.failf "load_manifest: %s" m
      | Ok m ->
          Alcotest.(check int) "rows" (Array.length cells)
            (List.length m.rows);
          Alcotest.(check int) "no corrupt rows" 0 m.corrupt);
      (* A half-written trailing row (killed mid-append) is skipped and
         its cell re-run, not trusted. *)
      let content = In_channel.with_open_bin manifest In_channel.input_all in
      let clipped = String.sub content 0 (String.length content - 25) in
      Out_channel.with_open_bin manifest (fun oc ->
          Out_channel.output_string oc clipped);
      (match Sched.Sweep.load_manifest manifest with
      | Error m -> Alcotest.failf "load_manifest (clipped): %s" m
      | Ok m ->
          Alcotest.(check int) "clipped row rejected" 1 m.corrupt;
          Alcotest.(check int) "other rows kept"
            (Array.length cells - 1)
            (List.length m.rows));
      let after = Sched.Sweep.run ~jobs:1 ~manifest cells in
      Alcotest.(check int) "clipped cell re-ran" 1
        (Array.length
           (Array.of_list
              (List.filter
                 (fun (r : Sched.Sweep.result) -> not r.restored)
                 (Array.to_list after))));
      Array.iteri
        (fun i r ->
          Alcotest.(check string)
            (Printf.sprintf "cell %d fingerprint after repair" i)
            (fp baseline.(i)) (fp r))
        after)

let test_sweep_manifest_rejects_foreign_file () =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "this is not a manifest\n");
      (match Sched.Sweep.load_manifest path with
      | Ok _ -> Alcotest.fail "foreign file accepted as manifest"
      | Error _ -> ());
      match Sched.Sweep.run ~jobs:1 ~manifest:path (small_cells ()) with
      | _ -> Alcotest.fail "run accepted a foreign manifest"
      | exception Invalid_argument _ -> ())

(* Files written by earlier builds must keep loading and restoring.
   All fixtures are Jigsaw checkpoints taken at t = 1000 of the
   24-job workload [Synthetic.synth ~mean_size:16 ~n_jobs:24 ~seed:42
   ~max_size:128] on a radix-8 machine (retries: up to 2, 30 s apart),
   written by the build that introduced them.  Each is paired with the
   fingerprint its uninterrupted run printed.
   - ckpt-v1-rigid.jsonl: rigid jobs; leaf switch 0 down over
     [300, 1400] and node 77 over [900, 2100].  Saved as version 2 and
     then turned into a version-1 file by hand: "version" set to 1, the
     "shrunk", "grown" and "cancelled" fields dropped from the acc row,
     and the trailer's MD5 recomputed over the edited body.
   - ckpt-v2-rigid.jsonl: ckpt-v1-rigid.jsonl loaded and saved again as
     version 2, which pins the rigid row shapes (no "min"/"max", no
     "epoch", no "shrink").
   - ckpt-v2-moldable.jsonl: the same jobs made moldable
     ([Workload.moldable], default range) with shrink recovery on;
     nodes 3, 40, 70, 100 and 17 fail at t = 200, 350, 500, 650, 800,
     each for 1500 s, so the file carries five in-place shrinks.
   - ckpt-v2-events.jsonl: holds a pending event of every kind.  The
     same 24 jobs plus job 24 (12 nodes, 700 s, arriving at 1100), all
     made moldable, with shrink recovery on.  Static faults: nodes 3
     and 100 fail at 200 and 600 (in-place shrinks; job 8's completion
     carries epoch 1), leaf switch 5 fails at 990 (kills jobs 6, 10
     and 22, requeued for 1020), node 77 fails at 1200, and each is
     repaired later.  At t = 500 the run accepted job 25 (moldable
     5..18, preferring 9, 400 s, arriving at 1150) through
     [Simulator.submit] and a fail/repair of node 50 at 1050/1800
     through [Simulator.inject_fault]; the checkpoint is taken at
     t = 1000, and its fingerprint is that of the same run finished
     without one. *)
let fixtures =
  [
    ("ckpt-v1-rigid.jsonl", 1, "aafac0e5c7aac4b51c501da70726ff32");
    ("ckpt-v2-moldable.jsonl", 2, "f887c7ba903e2e0645176be7aab314cc");
    ("ckpt-v2-rigid.jsonl", 2, "aafac0e5c7aac4b51c501da70726ff32");
    ("ckpt-v2-events.jsonl", 2, "b7447740037b29f38ff4a7e342b2caef");
  ]

let fixture_path name =
  (* The suite runs from test/ under runtest and from the build root
     under @validate. *)
  List.find Sys.file_exists
    [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let saved_bytes snap =
  with_temp (fun path ->
      Sched.Checkpoint.save ~path snap;
      read_file path)

let reload bytes =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc bytes);
      match Sched.Checkpoint.load ~path with
      | Ok s -> s
      | Error m -> Alcotest.failf "reload: %s" m)

let test_old_versions_load () =
  List.iter
    (fun (name, version, expected) ->
      let path = fixture_path name in
      match Sched.Checkpoint.load_ext ~path with
      | Error m -> Alcotest.failf "%s: %s" name m
      | Ok (snap, header) ->
          Alcotest.(check int)
            (name ^ " version") version
            (Obs.Json.int header "version");
          (match Sched.Simulator.of_snapshot snap with
          | Error m -> Alcotest.failf "%s restore: %s" name m
          | Ok sim ->
              Alcotest.(check int)
                (name ^ " finished count restored")
                (Array.length snap.finished)
                (Sched.Simulator.finished_count sim);
              let m, per_job = Sched.Simulator.finish sim in
              Alcotest.(check int)
                (name ^ " finished count matches the list")
                (List.length per_job)
                (Sched.Simulator.finished_count sim);
              Alcotest.(check string)
                (name ^ " fingerprint") expected
                (Sched.Metrics.fingerprint m));
          let once = saved_bytes snap in
          Alcotest.(check string)
            (name ^ " save→load→save") once
            (saved_bytes (reload once));
          if version = Sched.Checkpoint.version then
            Alcotest.(check string)
              (name ^ " re-saved byte for byte") (read_file path) once)
    fixtures;
  match Sched.Checkpoint.load ~path:(fixture_path "ckpt-v2-moldable.jsonl") with
  | Error m -> Alcotest.fail m
  | Ok snap -> Alcotest.(check int) "shrinks carried" 5 snap.acc.shrunk

(* The events fixture with its first [old] replaced by [by], and the
   trailer re-sealed over the edited body, so the integrity check passes
   and only the edited record can be at fault. *)
let edited_events ~old ~by =
  let content = read_file (fixture_path "ckpt-v2-events.jsonl") in
  let body =
    String.sub content 0
      (String.rindex_from content (String.length content - 2) '\n' + 1)
  in
  let rec find i =
    if i + String.length old > String.length body then
      Alcotest.failf "fixture lacks %S" old
    else if String.sub body i (String.length old) = old then i
    else find (i + 1)
  in
  let i = find 0 in
  let body =
    String.sub body 0 i ^ by
    ^ String.sub body (i + String.length old)
        (String.length body - i - String.length old)
  in
  let lines =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 body
  in
  body
  ^ Printf.sprintf "{\"record\":\"end\",\"lines\":%d,\"md5\":\"%s\"}\n"
      lines
      (Digest.to_hex (Digest.string body))

let restore_bytes bytes =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc bytes);
      Sched.Checkpoint.restore ~path ())

let test_bad_events_rejected () =
  let arrival = {|"prio":1,"seq":24,"tag":"a:24"|} in
  (match restore_bytes (edited_events ~old:arrival ~by:arrival) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "re-sealed fixture rejected: %s" m);
  List.iter
    (fun (what, old, by) ->
      match restore_bytes (edited_events ~old ~by) with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error m ->
          Alcotest.(check bool) (what ^ " passes the integrity check: " ^ m)
            false (contains m "integrity"))
    [
      ("unknown tag kind", arrival, {|"prio":1,"seq":24,"tag":"x:24"|});
      ("non-integer tag part", arrival, {|"prio":1,"seq":24,"tag":"a:2x"|});
      ("fault index out of range", {|"tag":"f:3"}|}, {|"tag":"f:10"}|});
      ("arrival of an unknown job", arrival, {|"prio":1,"seq":24,"tag":"a:99"|});
      ("prio disagreeing with its tag", arrival, {|"prio":0,"seq":24,"tag":"a:24"|});
    ]

let suite =
  [
    Alcotest.test_case "healthy: checkpoint at random times" `Quick
      test_roundtrip_healthy;
    Alcotest.test_case "faulty: checkpoint incl. between fail and repair"
      `Quick test_roundtrip_faulty;
    Alcotest.test_case "chained checkpoints compose" `Quick
      test_chained_checkpoints;
    Alcotest.test_case "save/load is the identity" `Quick
      test_snapshot_file_identity;
    Alcotest.test_case "corruption fails loudly" `Quick
      test_corruption_fails_loudly;
    Alcotest.test_case "cell ids stable and distinct" `Quick test_cell_ids;
    Alcotest.test_case "metrics manifest round-trip" `Quick
      test_metrics_manifest_roundtrip;
    Alcotest.test_case "sweep manifest resume" `Quick
      test_sweep_manifest_resume;
    Alcotest.test_case "manifest rejects foreign files" `Quick
      test_sweep_manifest_rejects_foreign_file;
    Alcotest.test_case "version-1 and version-2 files load" `Quick
      test_old_versions_load;
    Alcotest.test_case "malformed events rejected" `Quick
      test_bad_events_rejected;
  ]
