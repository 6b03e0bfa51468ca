(* jigsaw-sim: run scheduling simulations from the command line.

   Examples:
     jigsaw-sim --trace Thunder --sched Jigsaw
     jigsaw-sim --trace Synth-16 --sched all --scenario 10%
     jigsaw-sim --swf my_trace.swf --radix 18 --sched Jigsaw --table2
     jigsaw-sim --trace Synth-22 --sched all --mtbf 2e6 --mttr 2e4 --requeue 3
     jigsaw-sim --sweep --sched all --jobs 4          # full preset x scheme grid
     jigsaw-sim --sweep --sched all --fingerprint     # deterministic digests
     jigsaw-sim --sweep --sched all --resume-sweep base.jsonl  # one build,
     jigsaw-sim --sweep --sched all --diff base.jsonl   # reviewed by another *)

open Cmdliner

(* Stop generating new --mtbf failures once the queue is likely drained:
   the last arrival plus twice the longest runtime request. *)
let default_horizon (w : Trace.Workload.t) =
  let jobs = w.jobs in
  let last_arrival =
    if Array.length jobs = 0 then 0.0 else jobs.(Array.length jobs - 1).arrival
  in
  let max_est =
    Array.fold_left
      (fun acc (j : Trace.Job.t) -> Float.max acc j.est_runtime)
      0.0 jobs
  in
  last_arrival +. (2.0 *. max_est)

(* Advance a live simulation in [every]-sized simulated-time slices,
   writing a checkpoint after each slice.  Every write is atomic (temp
   file + rename), so a kill at any wall-clock instant leaves the last
   completed checkpoint intact. *)
let checkpoint_loop sim ~every ~out =
  match every with
  | None -> ()
  | Some dt ->
      let rec loop t =
        if not (Sched.Simulator.is_finished sim) then begin
          Sched.Simulator.run_until sim t;
          Sched.Checkpoint.write ~path:out sim;
          loop (t +. dt)
        end
      in
      loop (Sched.Simulator.now sim +. dt)

(* One run's result: its fingerprint line, keyed by [label], or its
   metrics row (JSON, or human followed by the profile report, the
   telemetry summary and the Table-2 histogram). *)
let print_result ~fingerprint ~json ~table2 ~label ?extra ?prof ?net
    (m : Sched.Metrics.t) =
  if fingerprint then
    Format.printf "%s %s@." label (Sched.Metrics.fingerprint m)
  else begin
    if json then Format.printf "%s@." (Sched.Metrics.to_json_string ?extra m)
    else Format.printf "%a@." (Sched.Metrics.pp ~format:Sched.Metrics.Human) m;
    (match prof with
    | Some p ->
        if json then begin
          let b = Buffer.create 1024 in
          Obs.Json.write_tree b (Obs.Prof.to_json p);
          Format.printf "%s%!" (Buffer.contents b)
        end
        else Format.printf "%a" Obs.Prof.pp_report p
    | None -> ());
    (match net with
    | Some s when not json ->
        Format.printf "%a@." Routing.Telemetry.pp_summary s
    | _ -> ());
    if table2 && not json then begin
      let h = m.inst_hist in
      Format.printf
        "  instantaneous utilization: >=98:%d  95-97:%d  90-95:%d  80-90:%d  60-80:%d  <=60:%d@."
        h.(5) h.(4) h.(3) h.(2) h.(1) h.(0)
    end
  end

(* --diff: one line per cell against a parent build's sweep manifest —
   whether the fingerprint moved, then the base and new values of the
   headline metrics (and, for profiled cells, of the give-up and
   reservation-probe counters), so a change that alters verdicts can be
   reviewed cell by cell instead of as "bytes differ". *)
let print_diff ~(base : Sched.Sweep.manifest) (cells : Sched.Sweep.cell array)
    (results : Sched.Sweep.result array) =
  let counter (r : Sched.Sweep.result) name =
    match r.prof with
    | None -> "-"
    | Some p -> string_of_int (Obs.Prof.counter p name)
  in
  let metric fmt f (r : Sched.Sweep.result) =
    Printf.sprintf fmt (f r.metrics)
  in
  (* Each column holds two fields: the base value, then the new one. *)
  let columns =
    [
      ("util %", 7, metric "%.2f" (fun m -> 100. *. m.avg_utilization));
      ("avg turnaround", 8, metric "%.0f" (fun m -> m.avg_turnaround_all));
      ("large turnaround", 8, metric "%.0f" (fun m -> m.avg_turnaround_large));
      ("rejected", 5, metric "%d" (fun m -> m.rejected));
      ("sched ms/job", 8, metric "%.4f" (fun m -> 1e3 *. m.sched_time_per_job));
      ("exhausted", 7, fun r -> counter r "probe/exhausted");
      ("res. probes", 8, fun r -> counter r "sched/reservation_probes");
    ]
  in
  let line first second fields =
    let b = Buffer.create 160 in
    Buffer.add_string b (Printf.sprintf "%-44s %-6s" first second);
    List.iter
      (fun (w, v) -> Buffer.add_string b (Printf.sprintf " %*s" w v))
      fields;
    Format.printf "%s@." (Buffer.contents b)
  in
  line "cell" "fp" (List.map (fun (name, w, _) -> ((2 * w) + 1, name)) columns);
  let same = ref 0 and changed = ref 0 and absent = ref 0 in
  Array.iteri
    (fun i (r : Sched.Sweep.result) ->
      let id = cells.(i).Sched.Sweep.id in
      match List.assoc_opt id base.rows with
      | None ->
          incr absent;
          line id "absent" []
      | Some b ->
          let fp = Sched.Metrics.fingerprint in
          let verdict, n =
            if fp b.metrics = fp r.metrics then ("same", same)
            else ("DIFF", changed)
          in
          incr n;
          line id verdict
            (List.concat_map (fun (_, w, f) -> [ (w, f b); (w, f r) ]) columns))
    results;
  Format.printf "@.diff: %d same, %d changed, %d absent from the base@." !same
    !changed !absent

(* --restore: the checkpoint is self-describing (workload, faults and
   scheme travel inside it), so no --trace/--sched flags are read. *)
let run_restored ~path ~checkpoint_every ~checkpoint_out ~json ~fingerprint
    ~table2 ~net =
  match Sched.Checkpoint.restore ?net ~path () with
  | Error m ->
      Format.eprintf "cannot restore %s: %s@." path m;
      exit 1
  | Ok sim ->
      (match checkpoint_every with
      | Some _ ->
          let out = Option.value checkpoint_out ~default:path in
          checkpoint_loop sim ~every:checkpoint_every ~out
      | None -> ());
      let m, _ = Sched.Simulator.finish sim in
      print_result ~fingerprint ~json ~table2
        ~label:(m.trace_name ^ "/" ^ m.sched_name)
        ?net:(Sched.Simulator.net_summary sim) m

let run preset swf radix sched scenario seed window truncate jobs sweep full
    scale table2 mtbf mttr fault_seed fault_trace fault_horizon requeue
    resubmit_delay charge_lost_work moldable trace_out trace_format profile
    json fingerprint series_out checkpoint_every checkpoint_out restore
    resume_sweep diff net_telemetry net_routing net_flows =
  let net =
    if not net_telemetry then None
    else
      match
        ( Routing.Telemetry.policy_of_name net_routing,
          Routing.Telemetry.shape_of_name net_flows )
      with
      | Some p, Some sh -> Some (p, sh)
      | None, _ ->
          Format.eprintf "unknown --net-routing %s (dmodk|greedy|jigsaw)@."
            net_routing;
          exit 1
      | _, None ->
          Format.eprintf "unknown --net-flows %s (alltoall|ring)@." net_flows;
          exit 1
  in
  (match restore with
  | Some path ->
      if preset <> None || swf <> None || sweep || diff <> None then begin
        Format.eprintf
          "--restore runs a self-describing checkpoint; drop \
           --trace/--swf/--sweep/--diff@.";
        exit 1
      end;
      run_restored ~path ~checkpoint_every ~checkpoint_out ~json ~fingerprint
        ~table2 ~net;
      exit 0
  | None -> ());
  let base =
    Option.map
      (fun path ->
        match Sched.Sweep.load_manifest path with
        | Ok m -> m
        | Error m ->
            Format.eprintf "cannot read --diff manifest %s: %s@." path m;
            exit 2)
      diff
  in
  let jobs = if jobs = 0 then Par.Pool.default_jobs () else max 1 jobs in
  let scenario =
    match Trace.Scenario.of_name scenario with
    | Ok s -> s
    | Error m ->
        Format.eprintf "%s@." m;
        exit 1
  in
  let allocs =
    match Sched.Allocator.of_cli sched with
    | Ok l -> l
    | Error m ->
        Format.eprintf "%s@." m;
        exit 1
  in
  let resilience =
    Cli_common.resilience ~requeue ~resubmit_delay ~charge_lost_work
  in
  (* Fault events are topology-specific, so the sweep regenerates them
     per entry; scripted traces cannot follow a cluster change. *)
  (match (fault_trace, mtbf) with
  | Some _, Some _ ->
      Format.eprintf "--fault-trace and --mtbf are mutually exclusive@.";
      exit 1
  | Some _, None when sweep ->
      Format.eprintf
        "--fault-trace ids are topology-specific; use --mtbf with --sweep@.";
      exit 1
  | _ -> ());
  let faults_for (entry : Trace.Presets.entry) (workload : Trace.Workload.t) =
    let topo = Fattree.Topology.of_radix entry.cluster_radix in
    match (fault_trace, mtbf) with
    | Some path, None -> (
        match Trace.Faults.load path with
        | Ok f -> f
        | Error m ->
            (* Exit 2: input-file rejection (the message carries the
               offending line number), distinct from usage errors. *)
            Format.eprintf "cannot load fault trace %s: %s@." path m;
            exit 2)
    | None, Some mtbf ->
        let horizon =
          match fault_horizon with
          | Some h -> h
          | None -> default_horizon workload
        in
        Trace.Faults.generate ~seed:fault_seed ~mtbf ~mttr ~horizon topo
    | _ -> Trace.Faults.none
  in
  let truncated (w : Trace.Workload.t) =
    let w =
      match truncate with Some n -> Trace.Workload.truncate w n | None -> w
    in
    Cli_common.apply_moldable moldable w
  in
  let mk_cell (entry : Trace.Presets.entry) alloc =
    let workload = truncated entry.workload in
    Sched.Sweep.cell ~profile
      (Sched.Simulator.Config.make ~scenario ~scenario_seed:seed
         ~backfill_window:window ~backfill:(window > 0)
         ~faults:(faults_for entry workload)
         ~resilience ?net ~radix:entry.cluster_radix alloc)
      workload
  in
  Cli_common.check_scale_full ~action:"runs" scale full;
  let entries =
    if sweep then begin
      if preset <> None || swf <> None then begin
        Format.eprintf "--sweep runs every preset; drop --trace/--swf@.";
        exit 1
      end;
      if scale then Trace.Presets.scale_all () else Trace.Presets.all ~full
    end
    else begin
      let entry =
        match (preset, swf) with
        | Some name, None -> (
            match Cli_common.preset_entry ~full name with
            | Ok e -> e
            | Error m ->
                Format.eprintf "%s@." m;
                exit 1)
        | None, Some path -> (
            match
              Trace.Swf.load ~name:(Filename.basename path) ~system_nodes:0 path
            with
            | Ok w -> { Trace.Presets.workload = w; cluster_radix = radix }
            | Error m ->
                (* Exit 2: input-file rejection, line number included. *)
                Format.eprintf "cannot load %s: %s@." path m;
                exit 2)
        | Some _, Some _ ->
            Format.eprintf "--trace and --swf are mutually exclusive@.";
            exit 1
        | None, None ->
            Format.eprintf "one of --trace or --swf is required@.";
            exit 1
      in
      [ entry ]
    end
  in
  let cells =
    List.concat_map (fun e -> List.map (mk_cell e) allocs) entries
    |> Array.of_list
  in
  (* Sinks buffer into channels, which only one domain may write: event
     tracing stays on the serial path. *)
  if trace_out <> None && (sweep || jobs > 1) then begin
    Format.eprintf "--trace-out is serial-only; drop --sweep/--jobs@.";
    exit 1
  end;
  (match checkpoint_every with
  | Some _ when sweep || List.length allocs > 1 || jobs > 1 || trace_out <> None
    ->
      Format.eprintf
        "--checkpoint-every snapshots a single serial run (one trace, one \
         scheme); drop --sweep/--jobs/--trace-out and pick one --sched@.";
      exit 1
  | Some _ when checkpoint_out = None ->
      Format.eprintf "--checkpoint-every requires --checkpoint-out FILE@.";
      exit 1
  | _ -> ());
  if resume_sweep <> None && (trace_out <> None || checkpoint_every <> None)
  then begin
    Format.eprintf
      "--resume-sweep journals sweep cells; drop --trace-out/--checkpoint-every@.";
    exit 1
  end;
  let multi = Array.length cells > 1 in
  let json = json && base = None and fingerprint = fingerprint && base = None in
  if (not json) && not fingerprint then begin
    if sweep then
      Format.printf "sweep: %d cells (%d traces x %d schemes), %d domain%s@.@."
        (Array.length cells) (List.length entries) (List.length allocs) jobs
        (if jobs = 1 then "" else "s")
    else begin
      let entry = List.hd entries in
      let workload = truncated entry.workload in
      let topo = Fattree.Topology.of_radix entry.cluster_radix in
      let faults = faults_for entry workload in
      Format.printf "trace: %a@." Trace.Workload.pp_summary
        (Trace.Workload.summarize workload);
      Format.printf "cluster: %a; scenario %s; backfill window %d@."
        Fattree.Topology.pp topo (Trace.Scenario.name scenario) window;
      if not (Trace.Faults.is_empty faults) then
        Format.printf "faults: %d events%s@."
          (Trace.Faults.num_events faults)
          (Cli_common.describe_requeue ~resubmit_delay requeue);
      Format.printf "@."
    end
  end;
  let t_start = Unix.gettimeofday () in
  let results =
    match (checkpoint_every, trace_out) with
    | Some _, _ ->
        (* Single serial cell, advanced slice by slice with a checkpoint
           after each slice; the final metrics are computed by [finish]
           exactly as an uninterrupted run would. *)
        let c = cells.(0) in
        let t0 = Unix.gettimeofday () in
        let prof = if profile then Some (Obs.Prof.create ()) else None in
        let cfg = Sched.Simulator.Config.with_prof prof c.cfg in
        let sim = Sched.Simulator.start cfg c.workload in
        let out = Option.get checkpoint_out in
        checkpoint_loop sim ~every:checkpoint_every ~out;
        let metrics, _ = Sched.Simulator.finish sim in
        [|
          {
            Sched.Sweep.metrics;
            prof;
            net = Sched.Simulator.net_summary sim;
            wall_s = Unix.gettimeofday () -. t0;
            restored = false;
          };
        |]
    | None, None when sweep -> (
        (* Graceful SIGINT/SIGTERM: finish (and journal) the cells in
           flight, start nothing new, exit 130 — a rerun with the same
           --resume-sweep file completes only the missing cells. *)
        let stop = Atomic.make false in
        let arm s =
          try Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true))
          with Invalid_argument _ -> ()
        in
        arm Sys.sigint;
        arm Sys.sigterm;
        match
          Sched.Sweep.run ~jobs ?manifest:resume_sweep
            ~should_stop:(fun () -> Atomic.get stop)
            cells
        with
        | results -> results
        | exception Sched.Sweep.Interrupted ->
            Format.eprintf "interrupted: in-flight cells journaled%s@."
              (match resume_sweep with
              | Some f ->
                  Printf.sprintf " to %s; rerun with the same flags to finish"
                    f
              | None ->
                  "; use --resume-sweep FILE to make interrupted sweeps \
                   resumable");
            exit 130)
    | None, None -> Sched.Sweep.run ~jobs ?manifest:resume_sweep cells
    | None, Some path ->
        (* Serial path with a live sink: all cells of one invocation
           append to a single trace file; the per-run [Run_meta] event
           delimits them (jigsaw-trace splits on it). *)
        let trace_fmt =
          match
            Cli_common.parse_format ~flag:"trace format" ~allow_auto:false
              trace_format
          with
          | Ok f -> f
          | Error m ->
              Format.eprintf "%s@." m;
              exit 1
        in
        let fmt =
          match trace_fmt with
          | Some f -> f
          | None -> Obs.Sink.format_of_path path
        in
        let oc = Out_channel.open_text path in
        let sink = Obs.Sink.to_channel fmt oc in
        let results =
          Array.map
            (fun (c : Sched.Sweep.cell) ->
              let t0 = Unix.gettimeofday () in
              let prof = if profile then Some (Obs.Prof.create ()) else None in
              let cfg =
                Sched.Simulator.Config.(
                  c.cfg |> with_sink sink |> with_prof prof)
              in
              let sim = Sched.Simulator.start cfg c.workload in
              let metrics, _ = Sched.Simulator.finish sim in
              {
                Sched.Sweep.metrics;
                prof;
                net = Sched.Simulator.net_summary sim;
                wall_s = Unix.gettimeofday () -. t0;
                restored = false;
              })
            cells
        in
        Out_channel.close oc;
        if (not json) && not fingerprint then
          Format.printf "event trace -> %s@." path;
        results
  in
  let total_wall = Unix.gettimeofday () -. t_start in
  (* A FILE.csv series path grows the cell's trace/scheme names before
     its extension when several cells run (FILE.Thunder.Jigsaw.csv), so
     runs never clobber each other. *)
  let series_file path (c : Sched.Sweep.cell) =
    if not multi then path
    else begin
      let tag =
        if sweep then
          Printf.sprintf "%s.%s" c.workload.Trace.Workload.name
            c.cfg.allocator.Sched.Allocator.name
        else c.cfg.allocator.Sched.Allocator.name
      in
      Printf.sprintf "%s.%s%s" (Filename.remove_extension path) tag
        (Filename.extension path)
    end
  in
  (match base with
  | Some base -> print_diff ~base cells results
  | None -> ());
  Array.iteri
    (fun i (r : Sched.Sweep.result) ->
      let c = cells.(i) in
      (* The stable cell id, not the display label: fingerprint lines
         are diffed across runs and machines, so the key must not depend
         on grid position or flag order. *)
      if base = None then
        print_result ~fingerprint ~json ~table2 ~label:c.id
          ~extra:
            [
              ("wall_clock_s", Obs.Json.Num r.wall_s);
              ("jobs", Obs.Json.Num (float_of_int jobs));
            ]
          ?prof:r.prof ?net:r.net r.metrics;
      match series_out with
      | Some path when not fingerprint ->
          let file = series_file path c in
          Out_channel.with_open_text file (fun oc ->
              Sched.Metrics.write_series_csv oc r.metrics);
          if not json then Format.printf "  utilization series -> %s@." file
      | _ -> ())
    results;
  if sweep && (not json) && not fingerprint then begin
    (match resume_sweep with
    | Some path ->
        let restored =
          Array.fold_left
            (fun n (r : Sched.Sweep.result) -> if r.restored then n + 1 else n)
            0 results
        in
        Format.printf "@.manifest %s: %d cell%s restored, %d run@." path
          restored
          (if restored = 1 then "" else "s")
          (Array.length results - restored)
    | None -> ());
    Format.printf "@.sweep wall-clock: %.2fs over %d domain%s@." total_wall jobs
      (if jobs = 1 then "" else "s")
  end

let cmd =
  let preset =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"NAME"
           ~doc:"Preset trace name (Table 1): Synth-16/22/28, Thunder, Atlas, Aug/Sep/Oct/Nov-Cab.")
  in
  let swf =
    Arg.(value & opt (some file) None & info [ "swf" ] ~docv:"FILE"
           ~doc:"Load a trace in Standard Workload Format instead of a preset.")
  in
  let radix =
    Arg.(value & opt int 18 & info [ "radix" ] ~docv:"K"
           ~doc:"Cluster switch radix for --swf traces (presets carry their own).")
  in
  let sched =
    Arg.(value & opt string "Jigsaw" & info [ "sched" ] ~docv:"SCHEME"
           ~doc:"Scheduler: Baseline, LC+S, Jigsaw, LaaS, TA, or 'all'.")
  in
  let scenario =
    Arg.(value & opt string "None" & info [ "scenario" ] ~docv:"S"
           ~doc:"Isolation speed-up scenario: None, 5%, 10%, 20%, V2, Random.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "scenario-seed" ] ~docv:"N"
           ~doc:"Seed for randomized scenarios (V2, Random).")
  in
  let window =
    Arg.(value & opt int 50 & info [ "window" ] ~docv:"N"
           ~doc:"EASY backfilling lookahead window (paper uses 50); 0 disables backfilling (plain FIFO).")
  in
  let truncate =
    Arg.(value & opt (some int) None & info [ "truncate" ] ~docv:"N"
           ~doc:"Truncate each trace to its first N jobs.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for parallel simulation: each trace x scheme \
                 cell runs on its own domain and results merge in submission \
                 order, so output is byte-identical to --jobs 1. 0 picks the \
                 machine's recommended domain count.")
  in
  let sweep =
    Arg.(value & flag & info [ "sweep" ]
           ~doc:"Run the full preset x scheme grid (all 9 Table-1 traces \
                 against every --sched scheme) in one invocation; combine \
                 with --jobs for a parallel sweep.")
  in
  let full =
    Cli_common.full_arg ~doc:"Use paper-scale preset traces (slow)."
  in
  let scale =
    Cli_common.scale_arg
      ~doc:"Use the radix-48 scale tier: the nine workload families \
            re-targeted at a 27648-node cluster (names carry an @48 \
            suffix, e.g. Synth-16@48), for measuring allocator cost \
            at large radix. With --sweep, runs the 45-cell scale grid; \
            incompatible with --full."
  in
  let table2 =
    Arg.(value & flag & info [ "table2" ]
           ~doc:"Also print the instantaneous-utilization histogram.")
  in
  let mtbf =
    Arg.(value & opt (some float) None & info [ "mtbf" ] ~docv:"SECONDS"
           ~doc:"Inject exponential failures: per-component mean time between \
                 failures (nodes, cables and switches each fail independently). \
                 Expected unavailable fraction per component is mttr/(mtbf+mttr). \
                 Under --sweep the stream is regenerated per cluster from the \
                 same seed.")
  in
  let mttr =
    Arg.(value & opt float 3600.0 & info [ "mttr" ] ~docv:"SECONDS"
           ~doc:"Mean time to repair for --mtbf failures.")
  in
  let fault_seed =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N"
           ~doc:"Seed for the --mtbf failure streams.")
  in
  let fault_trace =
    Arg.(value & opt (some file) None & info [ "fault-trace" ] ~docv:"FILE"
           ~doc:"Scripted fault trace: one '<time> fail|repair \
                 node|leaf-cable|l2-cable|leaf|l2|spine <id>' per line.")
  in
  let fault_horizon =
    Arg.(value & opt (some float) None & info [ "fault-horizon" ] ~docv:"SECONDS"
           ~doc:"Stop generating new --mtbf failures after this simulated time \
                 (default: last arrival + twice the longest runtime request).")
  in
  let requeue =
    Cli_common.requeue_arg
      ~doc:"Fault-recovery policy for killed jobs: RETRIES (resubmit each \
            victim up to RETRIES times), 'shrink' (moldable victims shed \
            only their failed nodes and keep running; others are \
            abandoned), or 'shrink:RETRIES' (shrink when possible, \
            resubmit the rest). Without this flag killed jobs are \
            abandoned."
  in
  let resubmit_delay =
    Cli_common.resubmit_delay_arg
      ~doc:"Delay between a fault killing a job and its resubmission."
  in
  let charge_lost_work =
    Arg.(value & opt bool true & info [ "charge-lost-work" ] ~docv:"BOOL"
           ~doc:"Count every killed attempt's node-seconds as lost work \
                 (false: only jobs abandoned for good are charged).")
  in
  let moldable =
    Cli_common.moldable_arg
      ~doc:"Make every job moldable around its rigid request: granted \
            sizes may range over [ceil(MIN*size), floor(MAX*size)] \
            (default 0.5,2.0) with the rigid size preferred, and \
            runtimes scale work-conservingly with the granted size. \
            Trace names gain a '+m' suffix, so cell ids and checkpoints \
            never collide with rigid runs."
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the structured event trace (arrivals, passes, \
                 allocation attempts, starts, reservations, completions, \
                 faults, kills) to FILE; all schemes of the invocation \
                 append to it. Analyze with jigsaw-trace. Serial-only \
                 (incompatible with --sweep and --jobs > 1).")
  in
  let trace_format =
    Arg.(value & opt (some string) None & info [ "trace-format" ] ~docv:"FMT"
           ~doc:"Trace format: jsonl or csv (default: csv for a .csv \
                 FILE, jsonl otherwise).")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Collect and print per-phase wall-clock profiles: probe and \
                 reservation span timers, probe-outcome and state-operation \
                 counters, queue/occupancy gauges. Each cell profiles into \
                 its own registry.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Machine-readable output: one flat JSON object per result \
                 row (and per --profile report) instead of the human text. \
                 Rows carry wall_clock_s and the domain count (jobs).")
  in
  let fingerprint =
    Arg.(value & flag & info [ "fingerprint" ]
           ~doc:"Print one 'label digest' line per cell instead of metrics: \
                 the behavioural fingerprint (wall-clock excluded), \
                 byte-comparable across --jobs settings.")
  in
  let series_out =
    Arg.(value & opt (some string) None & info [ "series-out" ] ~docv:"FILE"
           ~doc:"Dump the utilization time series to FILE at full float \
                 precision (with several cells, FILE gains the cell's \
                 names before its extension).")
  in
  let checkpoint_every =
    Arg.(value & opt (some float) None & info [ "checkpoint-every" ]
           ~docv:"SIMTIME"
           ~doc:"Checkpoint the simulation every SIMTIME simulated seconds to \
                 --checkpoint-out (atomic write: temp file + rename). Single \
                 serial run only (one trace, one scheme). Restoring the file \
                 and finishing reproduces the uninterrupted run's fingerprint \
                 bit for bit.")
  in
  let checkpoint_out =
    Arg.(value & opt (some string) None & info [ "checkpoint-out" ] ~docv:"FILE"
           ~doc:"Destination file for --checkpoint-every snapshots (each \
                 overwrites the last).")
  in
  let restore =
    Arg.(value & opt (some file) None & info [ "restore" ] ~docv:"FILE"
           ~doc:"Resume a checkpointed simulation and run it to completion. \
                 The file is self-describing (workload, scheme, faults and \
                 all mid-flight state travel inside it), so --trace/--sched \
                 are not read; --json/--fingerprint/--table2 still shape the \
                 output, and --checkpoint-every continues snapshotting \
                 (default destination: the restored file).")
  in
  let resume_sweep =
    Arg.(value & opt (some string) None & info [ "resume-sweep" ] ~docv:"FILE"
           ~doc:"Journal every finished sweep cell to FILE (one \
                 fingerprint-verified row per cell) and, when FILE already \
                 exists, skip the cells it records — an interrupted --sweep \
                 rerun with the same flags completes only the missing cells \
                 and reports identical results.")
  in
  let diff =
    Arg.(value & opt (some file) None & info [ "diff" ] ~docv:"BASE"
           ~doc:"Review this run against BASE, a --resume-sweep manifest \
                 written by another build: instead of the per-cell output \
                 (--json and --fingerprint are ignored), print one line \
                 per cell saying whether its fingerprint is the same, with \
                 both sides' utilization, average and large-job \
                 turnaround, rejected count and scheduling time per job, \
                 plus the probe/exhausted and sched/reservation_probes \
                 counters of cells that were profiled (--profile).")
  in
  let net_telemetry =
    Arg.(value & flag & info [ "net-telemetry" ]
           ~doc:"Route every running job's synthetic flow set and measure \
                 per-channel congestion and cross-job interference live: \
                 each start routes the job's flows under --net-routing, each \
                 completion or kill retracts them, maintaining incremental \
                 channel loads, shared-channel and interfered-flow counts. \
                 Emits net_route/net_sample trace events (see jigsaw-trace) \
                 and prints a telemetry summary per cell. Pure observer: \
                 metrics fingerprints are unchanged.")
  in
  let net_routing =
    Arg.(value & opt string "jigsaw" & info [ "net-routing" ] ~docv:"POLICY"
           ~doc:"Routing policy for --net-telemetry: dmodk (static \
                 destination-mod-k up-paths), greedy (load-aware per-job \
                 routing), or jigsaw (the paper's adjusted D-mod-k: the \
                 destination-based routing its subnet manager installs as \
                 forwarding tables, over the job's own allocated cables; \
                 flows an allocation cannot carry fall back to dmodk).")
  in
  let net_flows =
    Arg.(value & opt string "alltoall" & info [ "net-flows" ] ~docv:"SHAPE"
           ~doc:"Synthetic flow set routed per job: alltoall (every ordered \
                 node pair) or ring (each node to its successor).")
  in
  let term =
    Term.(
      const run $ preset $ swf $ radix $ sched $ scenario $ seed $ window
      $ truncate $ jobs $ sweep $ full $ scale $ table2 $ mtbf $ mttr
      $ fault_seed $ fault_trace $ fault_horizon $ requeue $ resubmit_delay
      $ charge_lost_work $ moldable $ trace_out $ trace_format $ profile $ json
      $ fingerprint $ series_out $ checkpoint_every $ checkpoint_out $ restore
      $ resume_sweep $ diff $ net_telemetry $ net_routing $ net_flows)
  in
  Cmd.v
    (Cmd.info "jigsaw-sim" ~version:"1.0.0"
       ~doc:"Trace-driven fat-tree scheduling simulation (Jigsaw, HPDC'21)")
    term

let () = exit (Cmd.eval cmd)
