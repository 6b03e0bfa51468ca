(* The sized-request allocator API and the molding paths built on it.

   Three layers are held to their contracts here:

   - the allocator laws: [Allocator.make]'s [probe_sized] degenerates
     to its plain probe on rigid jobs, for an arbitrary probe function,
     and every scheme's moldable grants are claimable and in range —
     checked as qcheck properties over random mid-run-shaped states for
     every scheme (the five paper schemes plus LC-exclusive);
   - shrink recovery: inert on rigid traces (bit-identical
     fingerprints with the policy on or off), and on a single-victim
     fault it beats kill+resubmit-at-the-shrunk-size analytically
     (zero lost work, strictly earlier completion);
   - checkpoint round-trips with moldable jobs and network telemetry
     on, for every scheme: checkpoint → restore → finish must equal
     the uninterrupted run's fingerprint bit for bit. *)

open Fattree

let radix = 8 (* 128 nodes *)
let topo = Topology.of_radix radix

let schemes () = Sched.Allocator.all @ [ Sched.Allocator.lc_exclusive () ]

(* ------------------------------------------------------------------ *)
(* Allocator laws                                                      *)
(* ------------------------------------------------------------------ *)

(* A state shaped like the simulator's mid-run states: jobs the scheme
   itself placed, plus a few failed nodes.  [seed] drives everything. *)
let occupied_state (a : Sched.Allocator.t) ~seed =
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed in
  let placed = Sim.Prng.int_in prng ~lo:0 ~hi:10 in
  for job = 0 to placed - 1 do
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:48 in
    let bw_class = Sim.Prng.choose prng [| 0.125; 0.25; 0.375; 0.5 |] in
    let j = Trace.Job.v ~id:job ~size ~bw_class ~runtime:1.0 () in
    match a.probe_sized st j with
    | Sized { alloc; _ } -> State.claim_exn st alloc
    | Sized_no_fit | Sized_gave_up -> ()
  done;
  let failures = Sim.Prng.int_in prng ~lo:0 ~hi:3 in
  for _ = 1 to failures do
    let n = Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.num_nodes topo - 1) in
    if State.node_free st n && not (State.node_failed st n) then
      State.fail_node st n
  done;
  (st, prng)

let probe_job prng ~moldable =
  let size = Sim.Prng.int_in prng ~lo:1 ~hi:64 in
  let bw_class = Sim.Prng.choose prng [| 0.125; 0.25; 0.375; 0.5 |] in
  let spec =
    if moldable then
      let min_size = max 1 (Sim.Prng.int_in prng ~lo:(size / 4) ~hi:size) in
      let max_size = Sim.Prng.int_in prng ~lo:size ~hi:(2 * size) in
      Some (Trace.Job.Moldable { min_size; max_size; pref = size })
    else None
  in
  Trace.Job.v ~id:9999 ~size ~bw_class ?spec ~runtime:1.0 ()

(* An arbitrary verdict function: a pure hash of the job's size and the
   seed picks a fit (a placeholder allocation of the probed size), a
   definitive no-fit or a budget cut-off. *)
let arbitrary_probe seed _ (j : Trace.Job.t) =
  match Hashtbl.hash (seed, j.size) mod 3 with
  | 0 ->
      Sched.Allocator.Alloc
        {
          Alloc.job = j.id;
          size = j.size;
          nodes = Array.init j.size Fun.id;
          leaf_cables = [||];
          l2_cables = [||];
          bw = j.bw_class;
        }
  | 1 -> Sched.Allocator.No_fit
  | _ -> Sched.Allocator.Gave_up

let prop_probe_sized_rigid_is_probe =
  QCheck2.Test.make
    ~name:"probe_sized on rigid jobs = probe (any verdict function)"
    ~count:200
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 128))
    (fun (seed, size) ->
      let probe = arbitrary_probe seed in
      let a = Sched.Allocator.make ~name:"arbitrary" ~isolating:false probe in
      let st = State.create topo in
      let j = Trace.Job.v ~id:9999 ~size ~runtime:1.0 () in
      match (a.probe_sized st j, probe st j) with
      | Sized { granted; alloc }, Sched.Allocator.Alloc x ->
          granted = j.size && alloc = x
      | Sized_no_fit, Sched.Allocator.No_fit -> true
      | Sized_gave_up, Sched.Allocator.Gave_up -> true
      | _ -> false)

let prop_probe_sized_moldable_grants_in_range =
  QCheck2.Test.make
    ~name:"probe_sized grants a claimable size in [min, pref] (all schemes)"
    ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      List.for_all
        (fun (a : Sched.Allocator.t) ->
          let st, prng = occupied_state a ~seed in
          let j = probe_job prng ~moldable:true in
          match a.probe_sized st j with
          | Sized { granted; alloc } ->
              granted >= Trace.Job.min_size j
              && granted <= j.size
              && alloc.Alloc.size = granted
              && Result.is_ok (State.claim (State.clone st) alloc)
          | Sized_no_fit ->
              (* Definitive only: the minimum size must itself be a
                 definitive no-fit, which is what the simulator's memo
                 relies on. *)
              let m = Trace.Job.min_size j in
              let rigid_min = { j with size = m; spec = Trace.Job.Rigid m } in
              a.probe_sized st rigid_min = Sized_no_fit
          | Sized_gave_up -> true)
        (schemes ()))

(* ------------------------------------------------------------------ *)
(* Shrink recovery                                                     *)
(* ------------------------------------------------------------------ *)

let fev time kind target = { Trace.Faults.time; kind; target }

let policy ?(retries = 2) ?(resubmit_delay = 5.0) ~shrink () =
  {
    Sched.Simulator.requeue = true;
    resubmit_delay;
    max_retries = retries;
    charge_lost_work = true;
    shrink;
  }

let test_shrink_inert_on_rigid () =
  (* With every job rigid, the shrink arm can never fire: fingerprints
     with the policy on and off are bit-identical, for every scheme. *)
  let w = Trace.Synthetic.synth ~mean_size:16 ~n_jobs:60 ~seed:42 ~max_size:128 in
  let faults =
    Trace.Faults.scripted
      [
        fev 400.0 Trace.Faults.Fail (Trace.Faults.Leaf_switch 0);
        fev 1400.0 Trace.Faults.Repair (Trace.Faults.Leaf_switch 0);
        fev 900.0 Trace.Faults.Fail (Trace.Faults.Node 77);
        fev 2100.0 Trace.Faults.Repair (Trace.Faults.Node 77);
      ]
  in
  List.iter
    (fun (alloc : Sched.Allocator.t) ->
      let fp shrink =
        Sched.Metrics.fingerprint
          (Sched.Simulator.run
             (Sched.Simulator.Config.make ~faults
                ~resilience:(policy ~shrink ()) ~radix alloc)
             w)
      in
      Alcotest.(check string)
        (alloc.name ^ ": shrink invisible on rigid traces")
        (fp false) (fp true))
    Sched.Allocator.all

let test_shrink_single_victim_beats_resubmit () =
  (* A whole-machine moldable job, one node fault at t=10.  Shrink keeps
     the 127 survivors: zero lost work, completion at
     10 + 90 * 128/127 (the remaining work recompressed).  The kill
     policy restarts from scratch at the shrunk size (127 is the
     largest feasible grant with the node down), finishing later and
     charging the 10 x 128 node-seconds the fault destroyed. *)
  let size = 128 in
  let job =
    Trace.Job.v ~id:1 ~size
      ~spec:(Trace.Job.Moldable { min_size = 64; max_size = size; pref = size })
      ~runtime:100.0 ()
  in
  let w =
    Trace.Workload.create ~name:"shrink-test" ~system_nodes:size [| job |]
  in
  let faults =
    Trace.Faults.scripted [ fev 10.0 Trace.Faults.Fail (Trace.Faults.Node 5) ]
  in
  let run ~shrink =
    Sched.Simulator.run_detailed
      (Sched.Simulator.Config.make ~faults
         ~resilience:(policy ~resubmit_delay:5.0 ~shrink ()) ~radix
         Sched.Allocator.baseline)
      w
  in
  let m_shrink, per_shrink = run ~shrink:true in
  let m_kill, per_kill = run ~shrink:false in
  Alcotest.(check int) "one shrink recovery" 1 m_shrink.shrunk;
  Alcotest.(check int) "no kill under shrink" 0 m_shrink.interrupted;
  Alcotest.(check (float 1e-9)) "zero lost work" 0.0 m_shrink.lost_node_time;
  Alcotest.(check int) "kill policy shrinks nothing" 0 m_kill.shrunk;
  Alcotest.(check (float 1e-9)) "kill charges the destroyed work"
    (10.0 *. float_of_int size)
    m_kill.lost_node_time;
  match (per_shrink, per_kill) with
  | [ rs ], [ rk ] ->
      Alcotest.(check (float 1e-9)) "shrunk job recompresses remaining work"
        (10.0 +. (90.0 *. 128.0 /. 127.0))
        rs.end_time;
      Alcotest.(check (float 1e-9)) "resubmission reruns from scratch at 127"
        (15.0 +. (100.0 *. 128.0 /. 127.0))
        rk.end_time;
      Alcotest.(check bool) "shrink finishes strictly earlier" true
        (rs.end_time < rk.end_time)
  | a, b ->
      Alcotest.failf "expected 1 record each, got %d and %d" (List.length a)
        (List.length b)

let test_shrink_below_min_falls_back_to_kill () =
  (* The fault takes the job below its min_size: shrink cannot help and
     the ordinary kill/requeue path must run instead. *)
  let size = 128 in
  let job =
    Trace.Job.v ~id:1 ~size
      ~spec:
        (Trace.Job.Moldable { min_size = size; max_size = size; pref = size })
      ~runtime:100.0 ()
  in
  let w =
    Trace.Workload.create ~name:"shrink-test" ~system_nodes:size [| job |]
  in
  let faults =
    Trace.Faults.scripted
      [
        fev 10.0 Trace.Faults.Fail (Trace.Faults.Node 5);
        fev 12.0 Trace.Faults.Repair (Trace.Faults.Node 5);
      ]
  in
  let m, _ =
    Sched.Simulator.run_detailed
      (Sched.Simulator.Config.make ~faults
         ~resilience:(policy ~resubmit_delay:5.0 ~shrink:true ()) ~radix
         Sched.Allocator.baseline)
      w
  in
  Alcotest.(check int) "no shrink below min" 0 m.shrunk;
  Alcotest.(check int) "killed instead" 1 m.interrupted;
  Alcotest.(check int) "requeued" 1 m.requeued;
  Alcotest.(check int) "finished on the rerun" 1 m.num_jobs

(* ------------------------------------------------------------------ *)
(* Online resize                                                       *)
(* ------------------------------------------------------------------ *)

let test_online_resize () =
  (* A full machine: the moldable job (32) and a rigid neighbor (96)
     saturate the 128 nodes, and a third rigid job (16) waits.  The
     API shrink to 16 frees exactly the nodes the waiter needs, so the
     pass it requests starts the waiter — and with the machine full
     again the grow pass can never undo the shrink. *)
  let moldable =
    Trace.Job.v ~id:1 ~size:32
      ~spec:(Trace.Job.Moldable { min_size = 8; max_size = 64; pref = 32 })
      ~runtime:100.0 ()
  in
  let neighbor = Trace.Job.v ~id:2 ~size:96 ~runtime:500.0 () in
  let waiter = Trace.Job.v ~id:3 ~size:16 ~runtime:500.0 () in
  let w =
    Trace.Workload.create ~name:"resize-test" ~system_nodes:128
      [| moldable; neighbor; waiter |]
  in
  let cfg = Sched.Simulator.Config.make ~radix Sched.Allocator.baseline in
  let sim = Sched.Simulator.start cfg w in
  Sched.Simulator.run_until sim 1.0;
  (match Sched.Simulator.resize sim 1 ~size:16 with
  | Sched.Simulator.Resized_to n -> Alcotest.(check int) "shrank to 16" 16 n
  | Sched.Simulator.Resize_refused m -> Alcotest.failf "shrink refused: %s" m);
  (match Sched.Simulator.resize sim 2 ~size:4 with
  | Sched.Simulator.Resize_refused _ -> ()
  | Sched.Simulator.Resized_to _ -> Alcotest.fail "rigid job resized");
  (match Sched.Simulator.resize sim 1 ~size:512 with
  | Sched.Simulator.Resize_refused _ -> ()
  | Sched.Simulator.Resized_to _ -> Alcotest.fail "resize beyond max accepted");
  (match Sched.Simulator.resize sim 99 ~size:4 with
  | Sched.Simulator.Resize_refused _ -> ()
  | Sched.Simulator.Resized_to _ -> Alcotest.fail "unknown job resized");
  let m, per_job = Sched.Simulator.finish sim in
  Alcotest.(check int) "all jobs finished" 3 m.num_jobs;
  (* [shrunk] counts fault recoveries only; an explicit API resize is an
     ordinary Resize event, not a recovery. *)
  Alcotest.(check int) "no fault recovery recorded" 0 m.shrunk;
  let record id =
    match
      List.find_opt
        (fun (r : Sched.Metrics.per_job) -> r.job.Trace.Job.id = id)
        per_job
    with
    | Some r -> r
    | None -> Alcotest.failf "job %d has no record" id
  in
  (* 1 s at 32 nodes, the remaining 99 s recompressed onto 16. *)
  Alcotest.(check (float 1e-9)) "work-conserving end time"
    (1.0 +. (99.0 *. 32.0 /. 16.0))
    (record 1).end_time;
  Alcotest.(check (float 1e-9)) "waiter starts on the freed nodes" 1.0
    (record 3).start_time

let test_resize_round_trip () =
  (* A lone moldable job granted its preference (32), shrunk to 12 and
     grown back to 32 at one instant.  Every scheme must grant both
     resizes; the partition schemes grow back within the partition's
     own cables, so the job ends holding exactly the leaf and L2 cables
     it started with. *)
  let job =
    Trace.Job.v ~id:1 ~size:32
      ~spec:(Trace.Job.Moldable { min_size = 8; max_size = 32; pref = 32 })
      ~runtime:100.0 ()
  in
  let w =
    Trace.Workload.create ~name:"resize-round-trip" ~system_nodes:128 [| job |]
  in
  List.iter
    (fun (alloc : Sched.Allocator.t) ->
      let sink, events = Obs.Sink.memory () in
      let sim =
        Sched.Simulator.start (Sched.Simulator.Config.make ~sink ~radix alloc) w
      in
      Sched.Simulator.run_until sim 1.0;
      let held () =
        match (Sched.Simulator.snapshot sim).running with
        | [| r |] -> r.rs_alloc
        | rs -> Alcotest.failf "%s: %d running jobs" alloc.name (Array.length rs)
      in
      let before = held () in
      let resize size =
        match Sched.Simulator.resize sim 1 ~size with
        | Sched.Simulator.Resized_to n ->
            Alcotest.(check int) (alloc.name ^ ": granted size") size n
        | Sched.Simulator.Resize_refused m ->
            Alcotest.failf "%s: resize to %d refused: %s" alloc.name size m
      in
      resize 12;
      resize 32;
      Sched.Simulator.run_until sim 1.0;
      let after = held () in
      if List.mem alloc.name [ "Jigsaw"; "LC"; "LC+S" ] then begin
        let sorted a = List.sort compare (Array.to_list a) in
        Alcotest.(check (list int))
          (alloc.name ^ ": leaf cables kept")
          (sorted before.leaf_cables) (sorted after.leaf_cables);
        Alcotest.(check (list int))
          (alloc.name ^ ": L2 cables kept")
          (sorted before.l2_cables) (sorted after.l2_cables)
      end;
      let resizes =
        List.filter_map
          (fun (e : Obs.Event.t) ->
            match e.payload with
            | Obs.Event.Resize { job; from_size; to_size; _ } ->
                Some (job, from_size, to_size)
            | _ -> None)
          (events ())
      in
      Alcotest.(check (list (triple int int int)))
        (alloc.name ^ ": resize events")
        [ (1, 32, 12); (1, 12, 32) ]
        resizes)
    (schemes ())

(* ------------------------------------------------------------------ *)
(* Moldable checkpoint round-trips (telemetry on)                      *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "jigsaw-mold" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_moldable_checkpoint_roundtrip () =
  let w =
    Trace.Workload.moldable
      (Trace.Synthetic.synth ~mean_size:16 ~n_jobs:50 ~seed:42 ~max_size:128)
  in
  let faults =
    Trace.Faults.scripted
      [
        fev 400.0 Trace.Faults.Fail (Trace.Faults.Node 13);
        fev 2000.0 Trace.Faults.Repair (Trace.Faults.Node 13);
      ]
  in
  let net = (Routing.Telemetry.Jigsaw, Routing.Telemetry.Alltoall) in
  List.iter
    (fun (alloc : Sched.Allocator.t) ->
      let cfg =
        Sched.Simulator.Config.make ~faults
          ~resilience:(policy ~shrink:true ()) ~net ~radix alloc
      in
      let m = Sched.Simulator.run cfg w in
      let expected = Sched.Metrics.fingerprint m in
      List.iter
        (fun t ->
          let fp =
            with_temp (fun path ->
                let sim = Sched.Simulator.start cfg w in
                Sched.Simulator.run_until sim t;
                Sched.Checkpoint.write ~path sim;
                match Sched.Checkpoint.restore ~net ~path () with
                | Error m -> Alcotest.failf "restore at t=%g: %s" t m
                | Ok sim' ->
                    let m, _ = Sched.Simulator.finish sim' in
                    Sched.Metrics.fingerprint m)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s moldable t=%g" alloc.name t)
            expected fp)
        [ 0.0; 450.0; m.makespan /. 2.0 ])
    Sched.Allocator.all

let suite =
  [
    QCheck_alcotest.to_alcotest prop_probe_sized_rigid_is_probe;
    QCheck_alcotest.to_alcotest prop_probe_sized_moldable_grants_in_range;
    Alcotest.test_case "shrink policy inert on rigid traces" `Quick
      test_shrink_inert_on_rigid;
    Alcotest.test_case "shrink beats kill+resubmit on a single victim" `Quick
      test_shrink_single_victim_beats_resubmit;
    Alcotest.test_case "shrink below min falls back to kill" `Quick
      test_shrink_below_min_falls_back_to_kill;
    Alcotest.test_case "online resize: verdicts and work conservation" `Quick
      test_online_resize;
    Alcotest.test_case "online resize round trip keeps partition cables"
      `Quick test_resize_round_trip;
    Alcotest.test_case "moldable checkpoint round-trip (telemetry on)" `Quick
      test_moldable_checkpoint_roundtrip;
  ]
