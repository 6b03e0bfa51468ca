(* Network telemetry: the incremental congestion index against the
   batch analyzer (property), telemetry as a pure observer (fingerprints
   and traces unchanged when off, fingerprints unchanged when on),
   same-seed trace determinism, kill/complete retraction restoring
   pre-start loads, checkpoint → restore → finish parity with telemetry
   enabled for every scheme with and without faults, and codec
   round-trips for the net event variants. *)

open Fattree
open Routing

let radix = 8
let topo = Topology.of_radix radix

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

let scripted_faults =
  lazy
    (Trace.Faults.scripted
       [
         { Trace.Faults.time = 400.0; kind = Fail; target = Leaf_switch 0 };
         { Trace.Faults.time = 1400.0; kind = Repair; target = Leaf_switch 0 };
         { Trace.Faults.time = 900.0; kind = Fail; target = Node 77 };
         { Trace.Faults.time = 2100.0; kind = Repair; target = Node 77 };
       ])

let policies = [ Telemetry.Dmodk; Telemetry.Greedy; Telemetry.Jigsaw ]

let cfg ?(faults = Trace.Faults.none)
    ?(resilience = Sched.Simulator.no_resilience) ?net ?sink alloc =
  Sched.Simulator.Config.make ~faults ~resilience ?net ?sink ~radix alloc

(* ------------------------------------------------------------------ *)
(* Incremental index vs batch analyzer                                 *)
(* ------------------------------------------------------------------ *)

let report_eq (a : Congestion.report) (b : Congestion.report) =
  a.max_load = b.max_load
  && a.shared_channels = b.shared_channels
  && a.interfered_flows = b.interfered_flows
  && a.total_flows = b.total_flows

let prop_index_matches_batch =
  QCheck2.Test.make ~name:"incremental index = batch analyze" ~count:60
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 6)
           (list_size (int_range 0 10)
              (pair (int_range 0 127) (int_range 0 127))))
        (int_range 0 10_000))
    (fun (jobs_pairs, seed) ->
      let jobs =
        List.mapi (fun i pairs -> (i, Dmodk.routes topo pairs)) jobs_pairs
      in
      let idx = Congestion.Index.create topo in
      let present = ref [] in
      let check () =
        report_eq
          (Congestion.analyze (List.rev !present))
          (Congestion.Index.report idx)
      in
      let prng = Sim.Prng.create ~seed in
      let remove_one () =
        match !present with
        | [] -> true
        | l ->
            let victim, _ = List.nth l (Sim.Prng.int prng ~bound:(List.length l)) in
            Congestion.Index.remove_job idx victim;
            present := List.filter (fun (j, _) -> j <> victim) !present;
            check ()
      in
      (* Interleave adds with occasional removes, checking the full
         report after every mutation; then drain in random order. *)
      List.for_all
        (fun (j, paths) ->
          Congestion.Index.add_job idx ~job:j paths;
          present := (j, paths) :: !present;
          check () && if Sim.Prng.bool prng then remove_one () else true)
        jobs
      && (let ok = ref true in
          while !present <> [] do
            if not (remove_one ()) then ok := false
          done;
          !ok)
      && report_eq (Congestion.analyze []) (Congestion.Index.report idx))

let test_index_rejects_duplicates () =
  let idx = Congestion.Index.create topo in
  Congestion.Index.add_job idx ~job:7 (Dmodk.routes topo [ (0, 64) ]);
  (match Congestion.Index.add_job idx ~job:7 [] with
  | () -> Alcotest.fail "duplicate add accepted"
  | exception Invalid_argument _ -> ());
  Congestion.Index.remove_job idx 7;
  match Congestion.Index.remove_job idx 7 with
  | () -> Alcotest.fail "double remove accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Retraction restores pre-start loads                                 *)
(* ------------------------------------------------------------------ *)

let test_retraction_restores_loads () =
  (* Route job A, sample; route and retract job B (the "killed victim");
     the sample must return to A-only values exactly. *)
  let st = State.create topo in
  let alloc_of job size =
    match Jigsaw_core.Jigsaw.probe st ~job ~size with
    | Jigsaw_core.Partition.Infeasible | Exhausted ->
        Alcotest.failf "no allocation for job %d" job
    | Found p ->
        let a = Jigsaw_core.Partition.to_alloc topo p ~bw:1.0 in
        State.claim_exn st a;
        a
  in
  let a = alloc_of 1 24 and b = alloc_of 2 40 in
  List.iter
    (fun policy ->
      let t = Telemetry.create topo ~policy ~shape:Telemetry.Alltoall ~now:0.0 in
      ignore (Telemetry.add_job t ~now:1.0 a);
      let before = Telemetry.sample t in
      let routed = Telemetry.add_job t ~now:2.0 b in
      let retracted = Telemetry.remove_job t ~now:3.0 b.Alloc.job in
      Alcotest.(check bool)
        (Telemetry.policy_name policy ^ ": victim flows retracted in full")
        true
        (routed.ri_flows = retracted.ri_flows && routed.ri_flows > 0);
      let after = Telemetry.sample t in
      Alcotest.(check bool)
        (Telemetry.policy_name policy ^ ": loads back to pre-start values")
        true (before = after);
      ignore (Telemetry.remove_job t ~now:4.0 a.Alloc.job);
      let empty = Telemetry.sample t in
      Alcotest.(check int)
        (Telemetry.policy_name policy ^ ": empty max load")
        0 empty.s_max_load;
      Alcotest.(check int)
        (Telemetry.policy_name policy ^ ": empty flows")
        0 empty.s_total_flows)
    policies

let test_sim_kills_retract () =
  (* A faulty run with requeue: every route is eventually retracted and
     the last congestion sample reports an idle network. *)
  let sink, events = Obs.Sink.memory () in
  let c =
    cfg
      ~faults:(Lazy.force scripted_faults)
      ~resilience:requeue_policy
      ~net:(Telemetry.Jigsaw, Telemetry.Alltoall)
      ~sink Sched.Allocator.jigsaw
  in
  let m = Sched.Simulator.run c (Lazy.force workload) in
  Alcotest.(check bool) "jobs were killed" true (m.interrupted > 0);
  let routes = Hashtbl.create 64 in
  let last_sample = ref None in
  List.iter
    (fun (e : Obs.Event.t) ->
      match e.payload with
      | Obs.Event.Net_route { job; retract; flows; _ } ->
          let r, t = try Hashtbl.find routes job with Not_found -> (0, 0) in
          if retract then Hashtbl.replace routes job (r, t + flows)
          else Hashtbl.replace routes job (r + flows, t)
      | Obs.Event.Net_congestion_sample { max_load; total_flows; _ } ->
          last_sample := Some (max_load, total_flows)
      | _ -> ())
    (events ());
  Alcotest.(check bool) "some routes happened" true (Hashtbl.length routes > 0);
  Hashtbl.iter
    (fun job (routed, retracted) ->
      if routed <> retracted then
        Alcotest.failf "job %d: %d flows routed but %d retracted" job routed
          retracted)
    routes;
  match !last_sample with
  | None -> Alcotest.fail "no congestion sample emitted"
  | Some (max_load, total_flows) ->
      Alcotest.(check int) "final max load" 0 max_load;
      Alcotest.(check int) "final flows" 0 total_flows

(* ------------------------------------------------------------------ *)
(* Pure observer: fingerprints and traces                              *)
(* ------------------------------------------------------------------ *)

let strip_net evs =
  List.filter
    (fun (e : Obs.Event.t) ->
      match e.payload with
      | Obs.Event.Net_route _ | Obs.Event.Net_congestion_sample _ -> false
      | _ -> true)
    evs

let test_zero_fingerprint_impact () =
  let w = Lazy.force workload in
  List.iter
    (fun alloc ->
      let off = Sched.Simulator.run (cfg alloc) w in
      let sink_off, evs_off = Obs.Sink.memory () in
      ignore (Sched.Simulator.run (cfg ~sink:sink_off alloc) w);
      List.iter
        (fun policy ->
          let sink_on, evs_on = Obs.Sink.memory () in
          let on =
            Sched.Simulator.run
              (cfg ~net:(policy, Telemetry.Ring) ~sink:sink_on alloc)
              w
          in
          Alcotest.(check string)
            (alloc.Sched.Allocator.name ^ "/" ^ Telemetry.policy_name policy
           ^ ": fingerprint unchanged by telemetry")
            (Sched.Metrics.fingerprint off)
            (Sched.Metrics.fingerprint on);
          Alcotest.(check bool)
            (alloc.Sched.Allocator.name ^ ": non-net events unchanged")
            true
            (strip_net (evs_on ()) = evs_off ()))
        policies)
    Sched.Allocator.all

let test_trace_determinism () =
  (* Same seed, telemetry on: two runs produce structurally identical
     event streams, net events included. *)
  let w = Lazy.force workload in
  let go () =
    let sink, events = Obs.Sink.memory () in
    ignore
      (Sched.Simulator.run
         (cfg
            ~faults:(Lazy.force scripted_faults)
            ~resilience:requeue_policy
            ~net:(Telemetry.Greedy, Telemetry.Alltoall)
            ~sink Sched.Allocator.baseline)
         w);
    events ()
  in
  let a = go () and b = go () in
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  Alcotest.(check bool) "identical streams" true (a = b)

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore with telemetry enabled                         *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "jigsaw-net-ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let ckpt_parity ?faults ?resilience alloc policy t =
  let w = Lazy.force workload in
  let net = (policy, Telemetry.Ring) in
  let sink_full, evs_full = Obs.Sink.memory () in
  let full =
    Sched.Simulator.run (cfg ?faults ?resilience ~net ~sink:sink_full alloc) w
  in
  with_temp (fun path ->
      let sim =
        Sched.Simulator.start (cfg ?faults ?resilience ~net alloc) w
      in
      Sched.Simulator.run_until sim t;
      Sched.Checkpoint.write ~path sim;
      let sink_rest, evs_rest = Obs.Sink.memory () in
      match Sched.Checkpoint.restore ~sink:sink_rest ~net ~path () with
      | Error m -> Alcotest.failf "restore at t=%g failed: %s" t m
      | Ok sim' ->
          let m, _ = Sched.Simulator.finish sim' in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s t=%g fingerprint"
               alloc.Sched.Allocator.name
               (Telemetry.policy_name policy)
               t)
            (Sched.Metrics.fingerprint full)
            (Sched.Metrics.fingerprint m);
          (* The restored run's trace — net events included — must be
             the uninterrupted run's strict suffix past the checkpoint
             (run_until executed everything at or before [t]).  Run
             metadata is excluded: the restored run may re-emit its
             own [Run_meta] header. *)
          let no_meta evs =
            List.filter
              (fun (e : Obs.Event.t) ->
                match e.payload with Obs.Event.Run_meta _ -> false | _ -> true)
              evs
          in
          let suffix =
            List.filter (fun (e : Obs.Event.t) -> e.time > t)
              (no_meta (evs_full ()))
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s t=%g trace suffix identical"
               alloc.Sched.Allocator.name
               (Telemetry.policy_name policy)
               t)
            true
            (no_meta (evs_rest ()) = suffix))

let test_ckpt_parity_healthy () =
  List.iter
    (fun alloc ->
      List.iter
        (fun policy -> ckpt_parity alloc policy 700.0)
        policies)
    Sched.Allocator.all

let test_ckpt_parity_faulty () =
  let faults = Lazy.force scripted_faults in
  List.iter
    (fun alloc ->
      List.iter
        (fun policy ->
          (* 950.0: leaf 0 and node 77 both down — the restore rebuilds
             telemetry for the degraded machine's running set. *)
          ckpt_parity ~faults ~resilience:requeue_policy alloc policy 950.0)
        [ Telemetry.Jigsaw; Telemetry.Greedy ])
    Sched.Allocator.all

(* ------------------------------------------------------------------ *)
(* The jigsaw policy is the Figure-5 router                            *)
(* ------------------------------------------------------------------ *)

(* On random fragmented radix-8 states, every Jigsaw, LC+S and LaaS
   partition routes all ordered node pairs into conflict-free
   destination-based forwarding tables on its own cables, and the
   channels the jigsaw policy installs for the job are exactly those of
   the router's all-to-all paths over its communicating nodes (the
   [size] lowest held ids: LaaS pads). *)
let prop_jigsaw_policy_is_fig5_router =
  let open Jigsaw_core in
  QCheck2.Test.make ~name:"jigsaw policy routes the Figure-5 tables"
    ~count:40
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 100_000))
    (fun (size, seed) ->
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      let held = ref [] in
      for j = 0 to 7 do
        let s = Sim.Prng.int_in prng ~lo:1 ~hi:12 in
        match Jigsaw.probe st ~job:(100 + j) ~size:s with
        | Partition.Found q ->
            let a = Partition.to_alloc topo q ~bw:1.0 in
            State.claim_exn st a;
            held := a :: !held
        | Infeasible | Exhausted -> ()
      done;
      List.iter
        (fun a -> if Sim.Prng.bool prng then State.release st a)
        !held;
      let routed name bw = function
        | Partition.Infeasible | Exhausted -> true
        | Found p ->
            let fail fmt =
              Printf.ksprintf
                (fun m -> QCheck2.Test.fail_reportf "%s size %d: %s" name size m)
                fmt
            in
            (match Fwd.compile topo p with
            | Error m -> fail "tables: %s" m
            | Ok t -> (
                match Fwd.verify_all_pairs topo p t with
                | Error m -> fail "walk: %s" m
                | Ok () -> ()));
            (match Partition_routing.check_connectivity topo p with
            | Error m -> fail "router: %s" m
            | Ok () -> ());
            let alloc = Partition.to_alloc topo p ~bw in
            let comm = Array.sub (Partition.nodes p) 0 p.size in
            let paths =
              Array.to_list comm
              |> List.concat_map (fun src ->
                     Array.to_list comm
                     |> List.filter_map (fun dst ->
                            if src = dst then None
                            else
                              Some
                                (Result.get_ok
                                   (Partition_routing.path topo p ~src ~dst))))
            in
            let t =
              Telemetry.create topo ~policy:Telemetry.Jigsaw
                ~shape:Telemetry.Alltoall ~now:0.0
            in
            let info = Telemetry.add_job t ~now:0.0 alloc in
            let channels = Hashtbl.length (Path.channel_loads paths) in
            if info.ri_channels <> channels then
              fail "telemetry occupies %d channels, the router's paths %d"
                info.ri_channels channels;
            true
      in
      routed "Jigsaw" 1.0 (Jigsaw.probe st ~job:0 ~size)
      && routed "LC+S" 0.25
           (Least_constrained.probe ~demand:0.25 st ~job:0 ~size)
      && routed "LaaS" 1.0 (Baselines.Laas.probe st ~job:0 ~size))

(* ------------------------------------------------------------------ *)
(* Event codec round-trips                                             *)
(* ------------------------------------------------------------------ *)

let test_net_event_codecs () =
  let events =
    [
      {
        Obs.Event.time = 12.5;
        payload =
          Obs.Event.Net_route
            { job = 3; retract = false; flows = 10; channels = 4; interfered = 2 };
      };
      {
        Obs.Event.time = 13.0;
        payload =
          Obs.Event.Net_route
            { job = 3; retract = true; flows = 10; channels = 4; interfered = 0 };
      };
      {
        Obs.Event.time = 14.25;
        payload =
          Obs.Event.Net_congestion_sample
            {
              max_load = 7;
              shared = 2;
              interfered = 3;
              total_flows = 40;
              lower_bound = 5;
            };
      };
    ]
  in
  List.iter
    (fun (e : Obs.Event.t) ->
      let b = Buffer.create 128 in
      Obs.Event.to_jsonl b e;
      let line = String.trim (Buffer.contents b) in
      if Obs.Event.of_jsonl line <> e then
        Alcotest.failf "jsonl round-trip changed %s" line;
      Buffer.clear b;
      Obs.Event.to_csv b e;
      let row = String.trim (Buffer.contents b) in
      if Obs.Event.of_csv row <> e then
        Alcotest.failf "csv round-trip changed %s" row)
    events

let suite =
  [
    QCheck_alcotest.to_alcotest prop_index_matches_batch;
    Alcotest.test_case "index rejects duplicate add/remove" `Quick
      test_index_rejects_duplicates;
    Alcotest.test_case "retraction restores pre-start loads" `Quick
      test_retraction_restores_loads;
    Alcotest.test_case "faulty run: kills retract every flow" `Quick
      test_sim_kills_retract;
    Alcotest.test_case "telemetry never changes fingerprints or traces" `Quick
      test_zero_fingerprint_impact;
    Alcotest.test_case "same-seed traces identical with telemetry" `Quick
      test_trace_determinism;
    Alcotest.test_case "checkpoint parity with telemetry (healthy)" `Quick
      test_ckpt_parity_healthy;
    Alcotest.test_case "checkpoint parity with telemetry (faulty)" `Quick
      test_ckpt_parity_faulty;
    QCheck_alcotest.to_alcotest prop_jigsaw_policy_is_fig5_router;
    Alcotest.test_case "net event codec round-trips" `Quick
      test_net_event_codecs;
  ]
