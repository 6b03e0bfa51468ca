(* Simulator-level failure resilience: fault events killing running
   jobs, the requeue/abandon policy, degraded-capacity metrics, and the
   no-fit memo across repair events (the memo must treat a repair
   exactly like a release). *)

let radix = 8 (* 128 nodes *)
let nodes = 128

let fev time kind target = { Trace.Faults.time; kind; target }

let config ?(alloc = Sched.Allocator.baseline) ?(faults = Trace.Faults.none)
    ?(resilience = Sched.Simulator.no_resilience) () =
  Sched.Simulator.Config.make ~faults ~resilience ~radix alloc

let workload jobs =
  Trace.Workload.create ~name:"fault-test" ~system_nodes:nodes
    (Array.of_list jobs)

let requeue ?(resubmit_delay = 0.0) max_retries =
  {
    Sched.Simulator.requeue = true;
    resubmit_delay;
    max_retries;
    charge_lost_work = true;
    shrink = false;
  }

(* ------------------------------------------------------------------ *)

let test_kill_and_requeue () =
  (* A whole-machine job is killed at t=10 by a node failure, the node
     is repaired at t=12, and the resubmission arrives at t=15: the job
     must restart and run to a *new* completion at t=115 — the stale
     completion event of the killed attempt (t=100) must be ignored. *)
  let job = Trace.Job.v ~id:1 ~size:nodes ~runtime:100.0 () in
  let faults =
    Trace.Faults.scripted
      [
        fev 10.0 Trace.Faults.Fail (Trace.Faults.Node 5);
        fev 12.0 Trace.Faults.Repair (Trace.Faults.Node 5);
      ]
  in
  let cfg = config ~faults ~resilience:(requeue ~resubmit_delay:5.0 3) () in
  let m, per_job = Sched.Simulator.run_detailed cfg (workload [ job ]) in
  Alcotest.(check int) "one fail event" 1 m.fault_events;
  Alcotest.(check int) "interrupted" 1 m.interrupted;
  Alcotest.(check int) "requeued" 1 m.requeued;
  Alcotest.(check int) "abandoned" 0 m.abandoned;
  Alcotest.(check int) "finished" 1 m.num_jobs;
  Alcotest.(check (float 1e-9)) "lost work = 10s x 128 nodes" 1280.0
    m.lost_node_time;
  match per_job with
  | [ r ] ->
      Alcotest.(check (float 1e-9)) "restart at kill + delay" 15.0 r.start_time;
      Alcotest.(check (float 1e-9)) "full rerun, stale completion ignored"
        115.0 r.end_time
  | l -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l))

let test_abandon_without_requeue () =
  let job = Trace.Job.v ~id:1 ~size:nodes ~runtime:100.0 () in
  let faults =
    Trace.Faults.scripted [ fev 10.0 Trace.Faults.Fail (Trace.Faults.Node 5) ]
  in
  let m, per_job = Sched.Simulator.run_detailed (config ~faults ()) (workload [ job ]) in
  Alcotest.(check int) "interrupted" 1 m.interrupted;
  Alcotest.(check int) "requeued" 0 m.requeued;
  Alcotest.(check int) "abandoned" 1 m.abandoned;
  Alcotest.(check int) "nothing finished" 0 m.num_jobs;
  Alcotest.(check int) "no record" 0 (List.length per_job);
  Alcotest.(check (float 1e-9)) "lost work" 1280.0 m.lost_node_time

let test_retry_cap () =
  (* Two kills against a cap of one retry: the first requeues, the
     second abandons. *)
  let job = Trace.Job.v ~id:1 ~size:nodes ~runtime:100.0 () in
  let faults =
    Trace.Faults.scripted
      [
        fev 10.0 Trace.Faults.Fail (Trace.Faults.Node 5);
        fev 12.0 Trace.Faults.Repair (Trace.Faults.Node 5);
        fev 30.0 Trace.Faults.Fail (Trace.Faults.Node 6);
        fev 32.0 Trace.Faults.Repair (Trace.Faults.Node 6);
      ]
  in
  let cfg = config ~faults ~resilience:(requeue ~resubmit_delay:5.0 1) () in
  let m, per_job = Sched.Simulator.run_detailed cfg (workload [ job ]) in
  Alcotest.(check int) "two kills" 2 m.interrupted;
  Alcotest.(check int) "one requeue" 1 m.requeued;
  Alcotest.(check int) "then abandoned" 1 m.abandoned;
  Alcotest.(check int) "never finished" 0 m.num_jobs;
  Alcotest.(check int) "no record" 0 (List.length per_job);
  (* Attempt 1 ran [0,10), attempt 2 ran [15,30). *)
  Alcotest.(check (float 1e-9)) "lost work both attempts"
    (float_of_int nodes *. (10.0 +. 15.0))
    m.lost_node_time

let test_charge_lost_work_off () =
  (* With [charge_lost_work = false] a kill that leads to a successful
     rerun costs nothing; only the abandoning kill is charged. *)
  let job = Trace.Job.v ~id:1 ~size:nodes ~runtime:100.0 () in
  let faults =
    Trace.Faults.scripted
      [
        fev 10.0 Trace.Faults.Fail (Trace.Faults.Node 5);
        fev 12.0 Trace.Faults.Repair (Trace.Faults.Node 5);
      ]
  in
  let resilience =
    { (requeue ~resubmit_delay:5.0 3) with charge_lost_work = false }
  in
  let m = Sched.Simulator.run (config ~faults ~resilience ()) (workload [ job ]) in
  Alcotest.(check (float 1e-9)) "rerun succeeded, nothing charged" 0.0
    m.lost_node_time;
  Alcotest.(check int) "still counted as interrupted" 1 m.interrupted

let test_fault_on_idle_resources_kills_nothing () =
  (* Failing resources no running job holds must not interrupt anyone;
     it only dents the healthy-capacity integral.  The second arrival at
     t=50 keeps the steady window ([first start, last start]) open
     across the fault. *)
  let jobs =
    [
      Trace.Job.v ~id:1 ~size:4 ~runtime:100.0 ();
      Trace.Job.v ~id:2 ~size:4 ~runtime:10.0 ~arrival:50.0 ();
    ]
  in
  let faults =
    Trace.Faults.scripted
      [
        fev 10.0 Trace.Faults.Fail (Trace.Faults.Node 120);
        fev 60.0 Trace.Faults.Repair (Trace.Faults.Node 120);
      ]
  in
  let m = Sched.Simulator.run (config ~faults ()) (workload jobs) in
  Alcotest.(check int) "no interruption" 0 m.interrupted;
  Alcotest.(check int) "jobs finished" 2 m.num_jobs;
  Alcotest.(check int) "fault recorded" 1 m.fault_events;
  Alcotest.(check bool) "healthy fraction dipped below 1" true
    (m.healthy_fraction < 1.0)

let test_memo_invalidated_by_repair () =
  (* Satellite: the no-fit memo must never hide a feasible allocation
     across a repair.  Node 0 fails before anything arrives; job A then
     occupies the remaining 127 nodes until t=1000.  Job B (1 node,
     arriving at t=1) is definitively infeasible — a verdict the memo
     caches.  The repair at t=5 is the only resource-adding event before
     t=1000, so B starting at exactly t=5 proves the repair invalidated
     the memo like a release; a stale memo would sit on B until A
     completes. *)
  let a = Trace.Job.v ~id:1 ~size:(nodes - 1) ~runtime:1000.0 () in
  let b = Trace.Job.v ~id:2 ~size:1 ~runtime:10.0 ~arrival:1.0 () in
  let faults =
    Trace.Faults.scripted
      [
        fev 0.0 Trace.Faults.Fail (Trace.Faults.Node 0);
        fev 5.0 Trace.Faults.Repair (Trace.Faults.Node 0);
      ]
  in
  let m, per_job = Sched.Simulator.run_detailed (config ~faults ()) (workload [ a; b ]) in
  Alcotest.(check int) "both ran" 2 m.num_jobs;
  let rb =
    List.find (fun (r : Sched.Metrics.per_job) -> r.job.id = 2) per_job
  in
  Alcotest.(check (float 1e-9)) "B starts the instant the repair lands" 5.0
    rb.start_time;
  Alcotest.(check (float 1e-9)) "B ends" 15.0 rb.end_time

let test_backfilled_job_requeues_without_double_start () =
  (* Regression: a job started by backfill leaves its id in the pending
     queue (lazy deletion).  If a fault then kills and requeues it, the
     stale entry must not come back to life — or one backfill pass could
     collect the job twice and start it twice with the same attempt
     number, leaking the first allocation forever.

     Placements are forced by pre-failing nodes: A (126 nodes) takes
     everything but nodes 0-1, so backfilled B (1 node) must sit on the
     repaired node 0; failing node 0 at t=4 therefore kills exactly B.
     After the t=5 repairs two nodes are free — enough for the buggy
     double start, so a leak would show as a non-zero final sample. *)
  let a = Trace.Job.v ~id:1 ~size:(nodes - 2) ~runtime:10.0 () in
  let h = Trace.Job.v ~id:2 ~size:64 ~runtime:10.0 ~arrival:1.0 () in
  let b = Trace.Job.v ~id:3 ~size:1 ~runtime:5.0 ~arrival:2.0 () in
  let faults =
    Trace.Faults.scripted
      [
        fev 0.0 Trace.Faults.Fail (Trace.Faults.Node 0);
        fev 0.0 Trace.Faults.Fail (Trace.Faults.Node 1);
        fev 1.5 Trace.Faults.Repair (Trace.Faults.Node 0);
        fev 4.0 Trace.Faults.Fail (Trace.Faults.Node 0);
        fev 5.0 Trace.Faults.Repair (Trace.Faults.Node 0);
        fev 5.0 Trace.Faults.Repair (Trace.Faults.Node 1);
      ]
  in
  let cfg = config ~faults ~resilience:(requeue 3) () in
  let m, per_job = Sched.Simulator.run_detailed cfg (workload [ a; h; b ]) in
  Alcotest.(check int) "all three finished" 3 m.num_jobs;
  Alcotest.(check int) "one interruption" 1 m.interrupted;
  Alcotest.(check int) "one requeue" 1 m.requeued;
  Alcotest.(check int) "nothing stuck" 0 m.stuck_pending;
  let b_records =
    List.filter (fun (r : Sched.Metrics.per_job) -> r.job.id = 3) per_job
  in
  (match b_records with
  | [ r ] ->
      Alcotest.(check (float 1e-9)) "B restarts at the repair" 5.0 r.start_time;
      Alcotest.(check (float 1e-9)) "B's rerun completes once" 10.0 r.end_time
  | l ->
      Alcotest.fail
        (Printf.sprintf "B finished %d times, expected 1" (List.length l)));
  (* A leaked allocation never releases: the requested-busy series would
     end above zero. *)
  let _, last = m.series.(Array.length m.series - 1) in
  Alcotest.(check (float 0.0)) "no leaked allocation at end of run" 0.0 last

let test_transient_infeasibility_waits_for_repair () =
  (* A full-machine job arriving during a single-node outage is not
     "impossible": the scheduled repair makes it feasible.  It must stay
     blocked and start the instant the repair lands, not be rejected. *)
  let job = Trace.Job.v ~id:1 ~size:nodes ~runtime:10.0 ~arrival:1.0 () in
  let faults =
    Trace.Faults.scripted
      [
        fev 0.0 Trace.Faults.Fail (Trace.Faults.Node 0);
        fev 5.0 Trace.Faults.Repair (Trace.Faults.Node 0);
      ]
  in
  let m, per_job =
    Sched.Simulator.run_detailed (config ~faults ()) (workload [ job ])
  in
  Alcotest.(check int) "not rejected" 0 m.rejected;
  Alcotest.(check int) "ran" 1 m.num_jobs;
  Alcotest.(check int) "nothing stuck" 0 m.stuck_pending;
  match per_job with
  | [ r ] ->
      Alcotest.(check (float 1e-9)) "starts when the repair lands" 5.0
        r.start_time
  | l -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l))

let test_permanent_infeasibility_still_rejected () =
  (* With no repair left in the trace the degradation is permanent, so
     the oversized head is definitively infeasible: reject it (keeping
     the run terminating) and let the queue behind it proceed. *)
  let big = Trace.Job.v ~id:1 ~size:nodes ~runtime:10.0 ~arrival:1.0 () in
  let small = Trace.Job.v ~id:2 ~size:4 ~runtime:10.0 ~arrival:1.0 () in
  let faults =
    Trace.Faults.scripted [ fev 0.0 Trace.Faults.Fail (Trace.Faults.Node 0) ]
  in
  let m = Sched.Simulator.run (config ~faults ()) (workload [ big; small ]) in
  Alcotest.(check int) "big job rejected" 1 m.rejected;
  Alcotest.(check int) "small job ran" 1 m.num_jobs;
  Alcotest.(check int) "nothing stuck" 0 m.stuck_pending

let test_fifo_wedged_queue_is_reported () =
  (* Plain FIFO has no reservation path, so a head that fits nameplate
     capacity but not the permanently degraded machine wedges the queue;
     the run must end with those jobs visible in [stuck_pending] rather
     than silently unaccounted. *)
  let big = Trace.Job.v ~id:1 ~size:nodes ~runtime:10.0 ~arrival:1.0 () in
  let small = Trace.Job.v ~id:2 ~size:4 ~runtime:10.0 ~arrival:2.0 () in
  let faults =
    Trace.Faults.scripted [ fev 0.0 Trace.Faults.Fail (Trace.Faults.Node 0) ]
  in
  let cfg = Sched.Simulator.Config.with_backfill false (config ~faults ()) in
  let m = Sched.Simulator.run cfg (workload [ big; small ]) in
  Alcotest.(check int) "nothing ran" 0 m.num_jobs;
  Alcotest.(check int) "nothing rejected" 0 m.rejected;
  Alcotest.(check int) "both jobs reported stuck" 2 m.stuck_pending

let test_zero_fault_metrics_are_clean () =
  let entry =
    match Trace.Presets.by_name ~full:false "Synth-16" with
    | Some e -> e
    | None -> Alcotest.fail "preset missing"
  in
  let w = Trace.Workload.truncate entry.workload 80 in
  let cfg =
    Sched.Simulator.Config.make ~radix:entry.cluster_radix
      Sched.Allocator.jigsaw
  in
  let m = Sched.Simulator.run cfg w in
  Alcotest.(check int) "no fault events" 0 m.fault_events;
  Alcotest.(check int) "no interruptions" 0 m.interrupted;
  Alcotest.(check (float 0.0)) "no lost work" 0.0 m.lost_node_time;
  Alcotest.(check (float 0.0)) "healthy the whole run" 1.0 m.healthy_fraction;
  Alcotest.(check (float 1e-9)) "util vs healthy collapses to util"
    m.avg_utilization m.util_vs_healthy

let test_all_schemes_survive_mtbf_faults () =
  (* Every allocator must complete a seeded MTBF run with consistent
     accounting; validated claims inside State abort the run if any
     scheme ever proposes a failed resource. *)
  let entry =
    match Trace.Presets.by_name ~full:false "Synth-16" with
    | Some e -> e
    | None -> Alcotest.fail "preset missing"
  in
  let w = Trace.Workload.truncate entry.workload 120 in
  let topo = Fattree.Topology.of_radix entry.cluster_radix in
  let faults =
    Trace.Faults.generate ~seed:3 ~mtbf:5e6 ~mttr:2e4 ~horizon:3e5 topo
  in
  Alcotest.(check bool) "trace is non-trivial" true
    (Trace.Faults.num_events faults > 0);
  List.iter
    (fun (alloc : Sched.Allocator.t) ->
      let cfg =
        Sched.Simulator.Config.make ~faults
          ~resilience:(requeue ~resubmit_delay:60.0 2)
          ~radix:entry.cluster_radix alloc
      in
      let m = Sched.Simulator.run cfg w in
      Alcotest.(check int)
        (alloc.name ^ ": every kill requeues or abandons")
        m.interrupted
        (m.requeued + m.abandoned);
      Alcotest.(check int)
        (alloc.name ^ ": every job finished, was rejected or abandoned")
        (Trace.Workload.num_jobs w)
        (m.num_jobs + m.rejected + m.abandoned);
      Alcotest.(check bool)
        (alloc.name ^ ": healthy fraction in (0.9, 1]")
        true
        (m.healthy_fraction > 0.9 && m.healthy_fraction <= 1.0);
      Alcotest.(check bool)
        (alloc.name ^ ": lost work non-negative")
        true (m.lost_node_time >= 0.0))
    Sched.Allocator.all

let suite =
  [
    Alcotest.test_case "kill, requeue, rerun (stale completion guarded)" `Quick
      test_kill_and_requeue;
    Alcotest.test_case "abandon without requeue" `Quick
      test_abandon_without_requeue;
    Alcotest.test_case "retry cap abandons after too many kills" `Quick
      test_retry_cap;
    Alcotest.test_case "charge-lost-work=false charges only abandonment" `Quick
      test_charge_lost_work_off;
    Alcotest.test_case "fault on idle resources kills nothing" `Quick
      test_fault_on_idle_resources_kills_nothing;
    Alcotest.test_case "no-fit memo invalidated by repair" `Quick
      test_memo_invalidated_by_repair;
    Alcotest.test_case "backfilled job requeues without double start" `Quick
      test_backfilled_job_requeues_without_double_start;
    Alcotest.test_case "transient infeasibility waits for repair" `Quick
      test_transient_infeasibility_waits_for_repair;
    Alcotest.test_case "permanent infeasibility still rejected" `Quick
      test_permanent_infeasibility_still_rejected;
    Alcotest.test_case "FIFO wedged queue reported as stuck" `Quick
      test_fifo_wedged_queue_is_reported;
    Alcotest.test_case "zero-fault metrics are clean" `Quick
      test_zero_fault_metrics_are_clean;
    Alcotest.test_case "all schemes survive a seeded MTBF run" `Quick
      test_all_schemes_survive_mtbf_faults;
  ]
