(* Observability layer: event serialization round-trips, trace
   determinism, the null-sink "changes nothing" invariant (metric
   fingerprints bit-identical with tracing on and off), profile
   registry consistency, and the trace analysis pipeline. *)

let radix = 8 (* 128 nodes *)
let nodes = 128

let config ?(alloc = Sched.Allocator.baseline) ?(faults = Trace.Faults.none)
    ?(resilience = Sched.Simulator.no_resilience) () =
  Sched.Simulator.Config.make ~faults ~resilience ~radix alloc

let workload jobs =
  Trace.Workload.create ~name:"obs-test" ~system_nodes:nodes
    (Array.of_list jobs)

let fev time kind target = { Trace.Faults.time; kind; target }

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* One event per payload kind, with awkward floats so the 17-digit
   round-trip is actually exercised. *)
let specimen_events =
  let open Obs.Event in
  [
    { time = 0.0;
      payload =
        Run_meta
          { trace = "t\"quoted\\name"; scheme = "LC+S"; scenario = "10%";
            radix = 16; nodes = 1024; jobs = 7 } };
    { time = 0.1; payload = Arrival { job = 3; size = 65 } };
    { time = 0.30000000000000004; payload = Pass_start { pending = 12 } };
    { time = 1e9; payload = Pass_end { started = 3 } };
    { time = 2.5;
      payload =
        Attempt
          { job = 4; ctx = Head; outcome = Fit; nodes = 8; leaf_cables = 16;
            l2_cables = 0 } };
    { time = 2.5;
      payload =
        Attempt
          { job = 5; ctx = Backfill; outcome = Infeasible; nodes = 0;
            leaf_cables = 0; l2_cables = 0 } };
    { time = 2.5;
      payload =
        Attempt
          { job = 6; ctx = Backfill; outcome = Exhausted; nodes = 0;
            leaf_cables = 0; l2_cables = 0 } };
    { time = 2.5;
      payload =
        Attempt
          { job = 7; ctx = Head; outcome = Memo_hit; nodes = 0;
            leaf_cables = 0; l2_cables = 0 } };
    { time = 3.75;
      payload =
        Start
          { job = 4; ctx = Head; nodes = 8; leaf_cables = 16; l2_cables = 4;
            est_end = 1234.5678901234567; attempt = 0 } };
    { time = 3.75;
      payload =
        Start
          { job = 9; ctx = Backfill; nodes = 1; leaf_cables = 0;
            l2_cables = 0; est_end = 4.0; attempt = 2 } };
    { time = 4.0;
      payload =
        Reservation_set
          { job = 11; at = 99.25; nodes = 128; leaf_cables = 64;
            l2_cables = 32 } };
    { time = 5.0; payload = Reservation_clear { job = 11 } };
    { time = 6.5; payload = Complete { job = 4; started = 3.75; waited = 1.25 } };
    { time = 7.0; payload = Reject { job = 13 } };
    { time = 8.0;
      payload =
        Fail { target = "leaf"; id = 5; nodes = 8; leaf_cables = 8;
               l2_cables = 0 } };
    { time = 9.0; payload = Repair { target = "l2-cable"; id = 77 } };
    { time = 10.0; payload = Kill { job = 4; attempt = 1; lost = 640.5 } };
    { time = 10.0; payload = Requeue { job = 4; attempt = 2; resume_at = 15.0 } };
    { time = 10.0; payload = Abandon { job = 21; attempt = 3 } };
    { time = 11.0;
      payload =
        Resize { job = 4; from_size = 8; to_size = 12; new_end = 20.125 } };
    { time = 12.0;
      payload =
        Shrink_recover { job = 9; attempt = 1; from_size = 16; to_size = 15 } };
    { time = 13.0;
      payload =
        Net_route
          { job = 4; retract = false; flows = 56; channels = 24;
            interfered = 0 } };
    { time = 14.0;
      payload =
        Net_route
          { job = 4; retract = true; flows = 56; channels = 24;
            interfered = 3 } };
    { time = 15.0;
      payload =
        Net_congestion_sample
          { max_load = 7; shared = 2; interfered = 5; total_flows = 90;
            lower_bound = 4 } };
  ]

let test_jsonl_roundtrip () =
  List.iter
    (fun (e : Obs.Event.t) ->
      let b = Buffer.create 128 in
      Obs.Event.to_jsonl b e;
      let line = Buffer.contents b in
      Alcotest.(check bool)
        "line ends with newline" true
        (String.length line > 0 && line.[String.length line - 1] = '\n');
      let e' = Obs.Event.of_jsonl (String.trim line) in
      if e' <> e then
        Alcotest.failf "jsonl round-trip mismatch for %a" Obs.Event.pp e)
    specimen_events

let test_csv_roundtrip () =
  List.iter
    (fun (e : Obs.Event.t) ->
      let b = Buffer.create 128 in
      Obs.Event.to_csv b e;
      let e' = Obs.Event.of_csv (String.trim (Buffer.contents b)) in
      if e' <> e then
        Alcotest.failf "csv round-trip mismatch for %a" Obs.Event.pp e)
    specimen_events

(* The exact bytes of each specimen event, one JSONL line and one CSV
   row apiece: the trace formats are read by tools outside this
   repository, so a codec change must not move a byte. *)
let specimen_lines =
  [
    ( {|{"t":0,"ev":"run","trace":"t\"quoted\\name","scheme":"LC+S","scenario":"10%","radix":16,"nodes":1024,"jobs":7}|},
      {|0,run,,LC+S,10%,t"quoted\name,1024,16,7,0,0|} );
    ( {|{"t":0.10000000000000001,"ev":"arrival","job":3,"size":65}|},
      {|0.10000000000000001,arrival,3,,,,65,0,0,0,0|} );
    ( {|{"t":0.30000000000000004,"ev":"pass_start","pending":12}|},
      {|0.30000000000000004,pass_start,,,,,0,0,0,12,0|} );
    ( {|{"t":1000000000,"ev":"pass_end","started":3}|},
      {|1000000000,pass_end,,,,,0,0,0,3,0|} );
    ( {|{"t":2.5,"ev":"attempt","job":4,"ctx":"head","outcome":"fit","nodes":8,"leaf":16,"l2":0}|},
      {|2.5,attempt,4,head,fit,,8,16,0,0,0|} );
    ( {|{"t":2.5,"ev":"attempt","job":5,"ctx":"backfill","outcome":"infeasible","nodes":0,"leaf":0,"l2":0}|},
      {|2.5,attempt,5,backfill,infeasible,,0,0,0,0,0|} );
    ( {|{"t":2.5,"ev":"attempt","job":6,"ctx":"backfill","outcome":"exhausted","nodes":0,"leaf":0,"l2":0}|},
      {|2.5,attempt,6,backfill,exhausted,,0,0,0,0,0|} );
    ( {|{"t":2.5,"ev":"attempt","job":7,"ctx":"head","outcome":"memo_hit","nodes":0,"leaf":0,"l2":0}|},
      {|2.5,attempt,7,head,memo_hit,,0,0,0,0,0|} );
    ( {|{"t":3.75,"ev":"start","job":4,"nodes":8,"leaf":16,"l2":4,"est_end":1234.5678901234567,"attempt":0}|},
      {|3.75,start,4,,,,8,16,4,1234.5678901234567,0|} );
    ( {|{"t":3.75,"ev":"backfill_start","job":9,"nodes":1,"leaf":0,"l2":0,"est_end":4,"attempt":2}|},
      {|3.75,backfill_start,9,,,,1,0,0,4,2|} );
    ( {|{"t":4,"ev":"reservation_set","job":11,"at":99.25,"nodes":128,"leaf":64,"l2":32}|},
      {|4,reservation_set,11,,,,128,64,32,99.25,0|} );
    ( {|{"t":5,"ev":"reservation_clear","job":11}|},
      {|5,reservation_clear,11,,,,0,0,0,0,0|} );
    ( {|{"t":6.5,"ev":"complete","job":4,"started":3.75,"waited":1.25}|},
      {|6.5,complete,4,,,,0,0,0,3.75,1.25|} );
    ( {|{"t":7,"ev":"reject","job":13}|},
      {|7,reject,13,,,,0,0,0,0,0|} );
    ( {|{"t":8,"ev":"fail","target":"leaf","id":5,"nodes":8,"leaf":8,"l2":0}|},
      {|8,fail,,,,leaf,8,8,0,5,0|} );
    ( {|{"t":9,"ev":"repair","target":"l2-cable","id":77}|},
      {|9,repair,,,,l2-cable,0,0,0,77,0|} );
    ( {|{"t":10,"ev":"kill","job":4,"attempt":1,"lost":640.5}|},
      {|10,kill,4,,,,0,0,0,1,640.5|} );
    ( {|{"t":10,"ev":"requeue","job":4,"attempt":2,"resume_at":15}|},
      {|10,requeue,4,,,,0,0,0,2,15|} );
    ( {|{"t":10,"ev":"abandon","job":21,"attempt":3}|},
      {|10,abandon,21,,,,0,0,0,3,0|} );
    ( {|{"t":11,"ev":"resize","job":4,"from":8,"to":12,"new_end":20.125}|},
      {|11,resize,4,,,,8,12,0,20.125,0|} );
    ( {|{"t":12,"ev":"shrink_recover","job":9,"attempt":1,"from":16,"to":15}|},
      {|12,shrink_recover,9,,,,16,15,0,1,0|} );
    ( {|{"t":13,"ev":"net_route","job":4,"flows":56,"channels":24,"interfered":0}|},
      {|13,net_route,4,,,,56,24,0,0,0|} );
    ( {|{"t":14,"ev":"net_retract","job":4,"flows":56,"channels":24,"interfered":3}|},
      {|14,net_retract,4,,,,56,24,3,0,0|} );
    ( {|{"t":15,"ev":"net_sample","max_load":7,"shared":2,"interfered":5,"flows":90,"lb":4}|},
      {|15,net_sample,,,,,7,2,5,90,4|} );
  ]

let test_specimen_bytes () =
  Alcotest.(check int) "one pinned pair per specimen"
    (List.length specimen_events) (List.length specimen_lines);
  List.iter2
    (fun e (jsonl, csv) ->
      let line f =
        let b = Buffer.create 128 in
        f b e;
        Buffer.contents b
      in
      Alcotest.(check string) "jsonl bytes" (jsonl ^ "\n")
        (line Obs.Event.to_jsonl);
      Alcotest.(check string) "csv bytes" (csv ^ "\n") (line Obs.Event.to_csv))
    specimen_events specimen_lines


(* String cells that a bare CSV cell cannot hold — a comma, a quote and
   a line break in a trace name (a workload is named after its file) —
   come back intact, from one row and through a trace file. *)
let test_csv_string_cells () =
  let open Obs.Event in
  let meta trace =
    { time = 0.0;
      payload =
        Run_meta
          { trace; scheme = "LC+S"; scenario = "a,b"; radix = 16;
            nodes = 1024; jobs = 2 } }
  in
  let events =
    [ meta "a,b \"c\"\nd.swf"; meta "\"lead"; meta "cr\r,";
      { time = 1.0; payload = Arrival { job = 0; size = 4 } } ]
  in
  List.iter
    (fun e ->
      let b = Buffer.create 128 in
      to_csv b e;
      let row = Buffer.contents b in
      let e' = of_csv (String.sub row 0 (String.length row - 1)) in
      if e' <> e then Alcotest.failf "csv round-trip mismatch for %a" pp e)
    events;
  let b = Buffer.create 128 in
  to_csv b (meta "a,b");
  Alcotest.(check string) "quoted only where needed"
    "0,run,,LC+S,\"a,b\",\"a,b\",1024,16,2,0,0\n" (Buffer.contents b);
  let path = Filename.temp_file "jigsaw-obs" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          let sink = Obs.Sink.to_channel Obs.Sink.Csv oc in
          List.iter (Obs.Sink.emit sink) events;
          Obs.Sink.flush sink);
      match Obs.Reader.load path with
      | Error m -> Alcotest.fail m
      | Ok runs ->
          Alcotest.(check (list string)) "run names survive the file"
            [ "a,b \"c\"\nd.swf"; "\"lead"; "cr\r," ]
            (List.filter_map
               (fun (r : Obs.Reader.run) ->
                 Option.map (fun (m : Obs.Event.run_meta) -> m.trace) r.meta)
               runs))

let test_parse_errors () =
  (match Obs.Event.of_jsonl "not json" with
  | _ -> Alcotest.fail "bad json accepted"
  | exception Obs.Json.Parse_error _ -> ());
  (match Obs.Event.of_csv "1,2,3" with
  | _ -> Alcotest.fail "short csv row accepted"
  | exception Obs.Json.Parse_error _ -> ());
  List.iter
    (fun (what, row) ->
      match Obs.Event.of_csv row with
      | _ -> Alcotest.failf "%s accepted: %s" what row
      | exception Obs.Json.Parse_error _ -> ())
    [
      ("unknown csv kind", "1,no_such_kind,,,,,0,0,0,0,0");
      ("empty job cell", "1,arrival,,,,,5,0,0,0,0");
      ("malformed count", "1,arrival,3,,,,five,0,0,0,0");
      ("fractional count", "1,arrival,3,,,,5.5,0,0,0,0");
      ("malformed time", "soon,arrival,3,,,,5,0,0,0,0");
      ("unknown ctx", "1,attempt,3,sideways,fit,,5,0,0,0,0");
      ("malformed a cell", "1,kill,3,,,,0,0,0,x,1");
    ];
  match Obs.Event.of_jsonl {|{"t":1,"ev":"no_such_kind"}|} with
  | _ -> Alcotest.fail "unknown kind accepted"
  | exception Obs.Json.Parse_error _ -> ()

(* The writer's fast paths against the [Printf] formatting they replace:
   the JSONL traces and checkpoints must stay byte-identical. *)
let printf_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let printf_escape s =
  let b = Buffer.create 16 in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let gen_writer_float =
  QCheck2.Gen.(
    oneof
      [
        float;
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map float_of_int (int_range (-(1 lsl 54)) (1 lsl 54));
        map (fun x -> x *. 1e-310) float;
        oneofl
          [
            0.0; -0.0; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15; -1e15;
            2.0 ** 53.0; -.(2.0 ** 53.0); 5e-324; -5e-324;
            Float.min_float /. 3.0; nan; -.nan; infinity; neg_infinity;
            0.1; 1e-7; 123.5;
          ];
      ])

let gen_writer_string =
  QCheck2.Gen.(
    oneof
      [
        string;
        string_printable;
        oneofl [ ""; "a\"b"; "\\"; "\x01\x1f\x7f" ];
      ])

let prop_writer_matches_printf =
  QCheck2.Test.make ~name:"json writer == Printf reference" ~count:2000
    ~print:(fun (x, k, v) -> Printf.sprintf "%h %S %S" x k v)
    QCheck2.Gen.(triple gen_writer_float gen_writer_string gen_writer_string)
    (fun (x, k, v) ->
      let b = Buffer.create 64 in
      Obs.Json.write b [ (k, Obs.Json.Str v); ("x", Obs.Json.Num x) ];
      Buffer.contents b
      = Printf.sprintf "{\"%s\":\"%s\",\"x\":%s}" (printf_escape k)
          (printf_escape v) (printf_num x))

(* A small workload exercising every simulator path: saturating head,
   reservation + backfill, a fault kill with requeue, and a repair. *)
let rich_workload () =
  let jobs =
    [
      Trace.Job.v ~id:0 ~size:nodes ~runtime:100.0 ();
      Trace.Job.v ~id:1 ~size:nodes ~runtime:10.0 ~arrival:1.0 ();
      Trace.Job.v ~id:2 ~size:8 ~runtime:20.0 ~arrival:2.0 ();
    ]
  in
  let faults =
    Trace.Faults.scripted
      [
        fev 5.0 Trace.Faults.Fail (Trace.Faults.Node 0);
        fev 6.0 Trace.Faults.Repair (Trace.Faults.Node 0);
      ]
  in
  let resilience =
    { Sched.Simulator.requeue = true; resubmit_delay = 5.0; max_retries = 3;
      charge_lost_work = true; shrink = false }
  in
  (workload jobs, faults, resilience)

let traced_run ?(prof = None) ?(faults = Trace.Faults.none)
    ?(resilience = Sched.Simulator.no_resilience) alloc w =
  let sink, events = Obs.Sink.memory () in
  let cfg =
    config ~alloc ~faults ~resilience ()
    |> Sched.Simulator.Config.with_sink sink
    |> Sched.Simulator.Config.with_prof prof
  in
  let m = Sched.Simulator.run cfg w in
  (m, events ())

let test_trace_deterministic () =
  (* Two same-seed runs must produce byte-identical event streams —
     events carry simulated time and logical payloads only.  The fault
     run additionally pins the job-id kill order across a multi-victim
     failure. *)
  let w, faults, resilience = rich_workload () in
  List.iter
    (fun alloc ->
      let _, ev1 = traced_run ~faults ~resilience alloc w in
      let _, ev2 = traced_run ~faults ~resilience alloc w in
      Alcotest.(check int)
        ("same event count: " ^ alloc.Sched.Allocator.name)
        (List.length ev1) (List.length ev2);
      if ev1 <> ev2 then
        Alcotest.failf "%s: event streams differ across identical runs"
          alloc.Sched.Allocator.name)
    [ Sched.Allocator.baseline; Sched.Allocator.jigsaw ]

let test_multi_victim_kill_order () =
  (* Fill the machine with size-2 jobs: leaf 0's 4 nodes (m1 = k/2 with
     radix 8) necessarily host at least two of them, so a leaf-switch
     failure is a multi-victim kill — and the Kill events must appear
     in job-id order at the fault instant, matching the post-mortem
     attribution. *)
  let jobs =
    List.init 64 (fun i -> Trace.Job.v ~id:(63 - i) ~size:2 ~runtime:100.0 ())
  in
  let faults =
    Trace.Faults.scripted
      [ fev 10.0 Trace.Faults.Fail (Trace.Faults.Leaf_switch 0) ]
  in
  let _, events =
    traced_run ~faults Sched.Allocator.baseline (workload jobs)
  in
  let kills =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.payload with Obs.Event.Kill { job; _ } -> Some job | _ -> None)
      events
  in
  Alcotest.(check bool) "multiple victims" true (List.length kills >= 2);
  Alcotest.(check (list int)) "kills in job-id order"
    (List.sort_uniq compare kills)
    kills;
  let a = Obs.Analysis.of_run { Obs.Reader.meta = None; events } in
  match a.faults with
  | [ f ] ->
      Alcotest.(check string) "target" "leaf" f.f_target;
      Alcotest.(check (list int)) "attribution" kills f.f_killed
  | l -> Alcotest.failf "expected 1 fault view, got %d" (List.length l)

(* The tentpole invariant: with the null sink (tracing off) and with a
   live sink + profiling, the metrics fingerprint is bit-identical.
   Covers every allocator on truncated presets plus a seeded fault run. *)
let test_null_sink_changes_nothing () =
  let presets = Trace.Presets.all ~full:false in
  List.iter
    (fun (entry : Trace.Presets.entry) ->
      let w = Trace.Workload.truncate entry.workload 60 in
      List.iter
        (fun alloc ->
          let cfg =
            Sched.Simulator.Config.make ~radix:entry.cluster_radix alloc
          in
          let plain = Sched.Simulator.run cfg w in
          let sink, _ = Obs.Sink.memory () in
          let traced =
            Sched.Simulator.run
              (cfg
              |> Sched.Simulator.Config.with_sink sink
              |> Sched.Simulator.Config.with_prof (Some (Obs.Prof.create ())))
              w
          in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s fingerprint" w.name
               alloc.Sched.Allocator.name)
            (Sched.Metrics.fingerprint plain)
            (Sched.Metrics.fingerprint traced))
        [ Sched.Allocator.baseline; Sched.Allocator.jigsaw ])
    presets

let test_null_sink_all_schemes_under_faults () =
  let entry =
    match Trace.Presets.by_name ~full:false "Synth-16" with
    | Some e -> e
    | None -> Alcotest.fail "Synth-16 preset missing"
  in
  let w = Trace.Workload.truncate entry.workload 80 in
  let topo = Fattree.Topology.of_radix entry.cluster_radix in
  let faults =
    Trace.Faults.generate ~seed:42 ~mtbf:2e5 ~mttr:2e4 ~horizon:5e3 topo
  in
  let resilience =
    { Sched.Simulator.requeue = true; resubmit_delay = 30.0; max_retries = 2;
      charge_lost_work = true; shrink = false }
  in
  List.iter
    (fun alloc ->
      let cfg =
        Sched.Simulator.Config.make ~faults ~resilience
          ~radix:entry.cluster_radix alloc
      in
      let plain = Sched.Simulator.run cfg w in
      let sink, _ = Obs.Sink.memory () in
      let traced =
        Sched.Simulator.run
          (cfg
          |> Sched.Simulator.Config.with_sink sink
          |> Sched.Simulator.Config.with_prof (Some (Obs.Prof.create ())))
          w
      in
      Alcotest.(check string)
        (alloc.Sched.Allocator.name ^ " fingerprint under faults")
        (Sched.Metrics.fingerprint plain)
        (Sched.Metrics.fingerprint traced))
    Sched.Allocator.all

let test_file_roundtrip () =
  (* Simulator -> sink -> file -> Reader recovers the exact stream, in
     both formats. *)
  let w, faults, resilience = rich_workload () in
  let _, mem_events =
    traced_run ~faults ~resilience Sched.Allocator.jigsaw w
  in
  List.iter
    (fun fmt ->
      let suffix =
        match fmt with Obs.Sink.Jsonl -> ".jsonl" | Obs.Sink.Csv -> ".csv"
      in
      let path = Filename.temp_file "jigsaw-obs" suffix in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_text path (fun oc ->
              let sink = Obs.Sink.to_channel fmt oc in
              let cfg =
                (Sched.Simulator.Config.with_sink sink
                   (config ~alloc:Sched.Allocator.jigsaw ~faults ~resilience
                      ()))
              in
              ignore (Sched.Simulator.run cfg w));
          match Obs.Reader.load path with
          | Error m -> Alcotest.fail m
          | Ok [ run ] ->
              (match run.meta with
              | Some meta ->
                  Alcotest.(check string) "meta trace" "obs-test" meta.trace;
                  Alcotest.(check string) "meta scheme" "Jigsaw" meta.scheme;
                  Alcotest.(check int) "meta nodes" nodes meta.nodes
              | None -> Alcotest.fail "run lost its meta event");
              let expected =
                List.filter
                  (fun (e : Obs.Event.t) ->
                    match e.payload with
                    | Obs.Event.Run_meta _ -> false
                    | _ -> true)
                  mem_events
              in
              Alcotest.(check int)
                (Obs.Sink.format_name fmt ^ " event count")
                (List.length expected)
                (List.length run.events);
              if run.events <> expected then
                Alcotest.failf "%s file round-trip diverges from memory sink"
                  (Obs.Sink.format_name fmt)
          | Ok runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs)))
    [ Obs.Sink.Jsonl; Obs.Sink.Csv ]

let test_reader_splits_runs () =
  let mk scheme =
    { Obs.Event.time = 0.0;
      payload =
        Obs.Event.Run_meta
          { trace = "t"; scheme; scenario = "None"; radix = 8; nodes = 128;
            jobs = 1 } }
  in
  let arr id =
    { Obs.Event.time = 1.0; payload = Obs.Event.Arrival { job = id; size = 1 } }
  in
  let runs =
    Obs.Reader.split_runs [ arr 0; mk "A"; arr 1; arr 2; mk "B"; arr 3 ]
  in
  match runs with
  | [ headless; a; b ] ->
      Alcotest.(check bool) "headless has no meta" true (headless.meta = None);
      Alcotest.(check int) "headless events" 1 (List.length headless.events);
      Alcotest.(check string) "run A" "A"
        (match a.meta with Some m -> m.scheme | None -> "?");
      Alcotest.(check int) "A events" 2 (List.length a.events);
      Alcotest.(check string) "run B" "B"
        (match b.meta with Some m -> m.scheme | None -> "?");
      Alcotest.(check int) "B events" 1 (List.length b.events)
  | l -> Alcotest.failf "expected 3 runs, got %d" (List.length l)

let test_profile_consistency () =
  let w, faults, resilience = rich_workload () in
  let p = Obs.Prof.create () in
  let m, _ =
    traced_run ~prof:(Some p) ~faults ~resilience Sched.Allocator.jigsaw w
  in
  let c = Obs.Prof.counter p in
  (* Every claim is a start; this run completes everything it starts. *)
  Alcotest.(check int) "claims = starts"
    (c "sched/starts" + c "sched/backfill_starts")
    (c "state/claims");
  Alcotest.(check int) "releases = claims (all done)" (c "state/claims")
    (c "state/releases");
  Alcotest.(check int) "fail ops recorded" 1 (c "state/failures");
  Alcotest.(check int) "repair ops recorded" 1 (c "state/repairs");
  Alcotest.(check bool) "passes counted" true (c "sched/passes" > 0);
  Alcotest.(check bool) "engine stepped" true (c "engine/steps" > 0);
  Alcotest.(check bool) "probes fit" true (c "probe/fit" > 0);
  (* 4 starts: job0, job2 (backfill), job0 again (requeue), job1. *)
  Alcotest.(check int) "starts" 4
    (c "sched/starts" + c "sched/backfill_starts");
  Alcotest.(check int) "interrupted metric agrees" 1 m.interrupted;
  let spans = Obs.Prof.spans p in
  Alcotest.(check bool) "head-probe span present" true
    (List.mem_assoc "sched/head_probe" spans);
  (* Every live-state claim and release runs under its span. *)
  let span_count name =
    match List.assoc_opt name spans with
    | Some (v : Obs.Prof.span_view) -> v.sp_count
    | None -> 0
  in
  Alcotest.(check int) "state/claim spans = claims" (c "state/claims")
    (span_count "state/claim");
  Alcotest.(check int) "state/release spans = releases" (c "state/releases")
    (span_count "state/release");
  List.iter
    (fun (name, (v : Obs.Prof.span_view)) ->
      Alcotest.(check bool) (name ^ " hist total = count") true
        (Array.fold_left ( + ) 0 v.sp_hist = v.sp_count);
      Alcotest.(check bool) (name ^ " mean <= max") true
        (v.sp_mean_ns <= v.sp_max_ns +. 1e-9))
    spans;
  let gauges = Obs.Prof.gauges p in
  Alcotest.(check bool) "queue-depth gauge sampled" true
    (match List.assoc_opt "gauge/queue_depth" gauges with
    | Some g -> g.Obs.Prof.g_samples > 0
    | None -> false);
  (* Profile JSON is well-formed enough to contain every section. *)
  let b = Buffer.create 256 in
  Obs.Json.write_tree b (Obs.Prof.to_json p);
  let s = Buffer.contents b in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("json has " ^ key) true
        (contains s (Printf.sprintf "\"%s\"" key)))
    [ "counters"; "spans"; "gauges"; "state/claims"; "sched/head_probe" ]

let test_analysis_summary () =
  let w, faults, resilience = rich_workload () in
  let _, events = traced_run ~faults ~resilience Sched.Allocator.jigsaw w in
  let runs = Obs.Reader.split_runs events in
  let run = List.hd runs in
  let a = Obs.Analysis.of_run run in
  Alcotest.(check int) "3 jobs" 3 (List.length a.timelines);
  Alcotest.(check int) "all completed" 3
    (List.length
       (List.filter
          (fun (tl : Obs.Analysis.timeline) -> tl.fate = Obs.Analysis.Completed)
          a.timelines));
  (* Job 0: killed at t=5 and restarted — two starts, one kill. *)
  let tl0 =
    List.find (fun (tl : Obs.Analysis.timeline) -> tl.id = 0) a.timelines
  in
  Alcotest.(check int) "job 0 restarted" 2 (List.length tl0.starts);
  Alcotest.(check (list (float 1e-9))) "job 0 killed at 5" [ 5.0 ] tl0.kills;
  Alcotest.(check int) "4 starts -> 4 waits" 4 (Array.length a.waits);
  Alcotest.(check bool) "queue sampled" true (Array.length a.queue_depths > 0);
  Alcotest.(check int) "one requeue" 1 a.requeues;
  Alcotest.(check int) "one repair" 1 a.repairs;
  (match a.faults with
  | [ f ] -> Alcotest.(check (list int)) "fault killed job 0" [ 0 ] f.f_killed
  | l -> Alcotest.failf "expected 1 fault, got %d" (List.length l));
  (* The report renders and mentions the load-bearing sections. *)
  let report = Format.asprintf "%a" (Obs.Analysis.pp_summary ~timeline:true) a in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (contains report needle))
    [ "scheme=Jigsaw"; "queue depth"; "wait histogram"; "faults: 1 injected";
      "timelines:"; "[completed]" ]

let test_metrics_json_roundtrip () =
  let w, _, _ = rich_workload () in
  let m = Sched.Simulator.run (config ~alloc:Sched.Allocator.jigsaw ()) w in
  let fields = Obs.Json.parse_line (Sched.Metrics.to_json_string m) in
  Alcotest.(check string) "trace" "obs-test" (Obs.Json.str fields "trace");
  Alcotest.(check string) "sched" "Jigsaw" (Obs.Json.str fields "sched");
  Alcotest.(check int) "num_jobs" m.num_jobs (Obs.Json.int fields "num_jobs");
  Alcotest.(check (float 1e-12)) "avg_utilization" m.avg_utilization
    (Obs.Json.num fields "avg_utilization");
  Alcotest.(check int) "series_points" (Array.length m.series)
    (Obs.Json.int fields "series_points");
  Alcotest.(check int) "hist key per bucket" (Array.length m.inst_hist)
    (List.length
       (List.filter
          (fun (k, _) -> String.length k > 10 && String.sub k 0 10 = "inst_hist_")
          fields))

let test_fingerprint_sensitivity () =
  let w, _, _ = rich_workload () in
  let m = Sched.Simulator.run (config ~alloc:Sched.Allocator.jigsaw ()) w in
  let fp = Sched.Metrics.fingerprint m in
  Alcotest.(check string) "wall-clock excluded" fp
    (Sched.Metrics.fingerprint
       { m with sched_time_total = 1234.0; sched_time_per_job = 5.0 });
  Alcotest.(check bool) "simulated fields included" true
    (fp <> Sched.Metrics.fingerprint { m with num_jobs = m.num_jobs + 1 });
  Alcotest.(check bool) "series included" true
    (fp <> Sched.Metrics.fingerprint { m with series = [||] })

let test_series_csv () =
  let w, _, _ = rich_workload () in
  let m = Sched.Simulator.run (config ~alloc:Sched.Allocator.baseline ()) w in
  let path = Filename.temp_file "jigsaw-series" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Sched.Metrics.write_series_csv oc m);
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check int) "header + one row per point"
        (1 + Array.length m.series)
        (List.length lines);
      Alcotest.(check string) "header" "time,utilization" (List.hd lines);
      (* Full-precision round trip through the text form. *)
      List.iteri
        (fun i line ->
          if i > 0 then
            match String.split_on_char ',' line with
            | [ t; u ] ->
                let et, eu = m.series.(i - 1) in
                Alcotest.(check (float 0.0)) "time" et (float_of_string t);
                Alcotest.(check (float 0.0)) "util" eu (float_of_string u)
            | _ -> Alcotest.failf "bad csv line %s" line)
        lines)

let test_null_sink_is_disabled () =
  Alcotest.(check bool) "null sink disabled" false Obs.Sink.null.enabled;
  let sink, events = Obs.Sink.memory () in
  Alcotest.(check bool) "memory sink enabled" true sink.enabled;
  Alcotest.(check int) "empty before emission" 0 (List.length (events ()));
  Alcotest.(check bool) "format by path" true
    (Obs.Sink.format_of_path "x/y.csv" = Obs.Sink.Csv
    && Obs.Sink.format_of_path "x/y.jsonl" = Obs.Sink.Jsonl
    && Obs.Sink.format_of_path "plain" = Obs.Sink.Jsonl)

(* The row codec, on a record with one field of each kind: required,
   [~omit] (an int and an option), [~absent], and an [optional] group. *)
type row_sample = {
  id : int;
  x : float;
  name : string;
  flag : bool;
  epoch : int;
  note : string option;
  since_v2 : int;
  range : (int * int) option;
}

let sample_row =
  let open Obs.Row in
  let+ id = field "id" int (fun r -> r.id)
  and+ x = field "x" num (fun r -> r.x)
  and+ name = field "name" str (fun r -> r.name)
  and+ flag = field "flag" bool (fun r -> r.flag)
  and+ epoch = field ~omit:0 "epoch" int (fun r -> r.epoch)
  and+ note = field ~omit:None "note" (option str) (fun r -> r.note)
  and+ since_v2 = field ~absent:7 "since_v2" int (fun r -> r.since_v2)
  and+ range =
    optional
      (fun r -> r.range)
      (let+ lo = field "lo" int fst and+ hi = field "hi" int snd in
       (lo, hi))
  in
  { id; x; name; flag; epoch; note; since_v2; range }

let gen_row_sample =
  QCheck2.Gen.(
    (* Integers travel as JSON numbers, exact up to 2^53. *)
    let exact = int_range (-(1 lsl 53)) (1 lsl 53) in
    let small = oneof [ pure 0; int_range (-1000) 1000; exact ] in
    let* id = exact and* x = gen_writer_float and* name = gen_writer_string in
    let* flag = bool and* epoch = small and* note = option gen_writer_string in
    let* since_v2 = small and* range = option (pair small small) in
    pure { id; x; name; flag; epoch; note; since_v2; range })

let prop_row_codec =
  QCheck2.Test.make ~name:"row codec round-trips in declaration order"
    ~count:1000
    ~print:(fun r ->
      let b = Buffer.create 64 in
      Obs.Json.write b (Obs.Row.fields sample_row r);
      Buffer.contents b)
    (QCheck2.Gen.map
       (fun r -> if Float.is_finite r.x then r else { r with x = 0.5 })
       gen_row_sample)
    (fun r ->
      let fields = Obs.Row.fields sample_row r in
      let b = Buffer.create 64 in
      Obs.Json.write b fields;
      let decode fields = Obs.Row.decode sample_row fields in
      let missing name =
        match decode (List.remove_assoc name fields) with
        | _ -> false
        | exception Obs.Json.Parse_error m ->
            m = Printf.sprintf "missing field %S" name
      in
      decode (Obs.Json.parse_line (Buffer.contents b)) = r
      && List.map fst fields
         = [ "id"; "x"; "name"; "flag" ]
           @ (if r.epoch = 0 then [] else [ "epoch" ])
           @ (if r.note = None then [] else [ "note" ])
           @ [ "since_v2" ]
           @ (if r.range = None then [] else [ "lo"; "hi" ])
      && decode (List.remove_assoc "since_v2" fields) = { r with since_v2 = 7 }
      && List.for_all missing [ "id"; "x"; "name"; "flag" ]
      && (r.range = None || (missing "lo" && missing "hi")))

let suite =
  [
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "csv round-trip" `Quick test_csv_roundtrip;
    Alcotest.test_case "specimen bytes pinned" `Quick test_specimen_bytes;
    Alcotest.test_case "csv string cells round-trip" `Quick
      test_csv_string_cells;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    QCheck_alcotest.to_alcotest prop_writer_matches_printf;
    QCheck_alcotest.to_alcotest prop_row_codec;
    Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "multi-victim kill order" `Quick
      test_multi_victim_kill_order;
    Alcotest.test_case "null sink changes nothing" `Quick
      test_null_sink_changes_nothing;
    Alcotest.test_case "null sink: all schemes under faults" `Quick
      test_null_sink_all_schemes_under_faults;
    Alcotest.test_case "file round-trip via reader" `Quick test_file_roundtrip;
    Alcotest.test_case "reader splits runs" `Quick test_reader_splits_runs;
    Alcotest.test_case "profile consistency" `Quick test_profile_consistency;
    Alcotest.test_case "analysis summary" `Quick test_analysis_summary;
    Alcotest.test_case "metrics json round-trip" `Quick
      test_metrics_json_roundtrip;
    Alcotest.test_case "fingerprint sensitivity" `Quick
      test_fingerprint_sensitivity;
    Alcotest.test_case "series csv" `Quick test_series_csv;
    Alcotest.test_case "sink basics" `Quick test_null_sink_is_disabled;
  ]
