(* EASY backfilling walkthrough on a hand-sized trace.

   Shows the scheduler mechanics the evaluation relies on: the queue
   head gets a reservation, short jobs jump ahead when they cannot delay
   it, long conflicting jobs wait.  Prints a start/finish timeline under
   Jigsaw placement.

   Run with:  dune exec examples/backfill_demo.exe *)

let () =
  let job ?(arrival = 0.0) id size runtime =
    Trace.Job.v ~id ~size ~runtime ~arrival ()
  in
  (* Radix-8 cluster: 128 nodes.  Job 0 holds most of the machine; job 1
     (the head) needs everything and reserves t=100; jobs 2-4 are
     backfill candidates with different fates. *)
  let jobs =
    [|
      job 0 100 100.0 (* fills the machine until t=100 *);
      job 1 128 50.0 (* whole machine: reserved at t=100 *);
      job 2 16 80.0 (* short: ends before the reservation -> backfills *);
      job 3 20 400.0 (* long and conflicting: must wait for job 1 *);
      job 4 8 60.0 (* short: also backfills *);
    |]
  in
  let w = Trace.Workload.create ~name:"demo" ~system_nodes:128 jobs in
  let cfg = Sched.Simulator.Config.make ~radix:8 Sched.Allocator.jigsaw in
  let m, per_job = Sched.Simulator.run_detailed cfg w in
  let sorted =
    List.sort
      (fun (a : Sched.Metrics.per_job) b -> compare a.start_time b.start_time)
      per_job
  in
  Format.printf "%-5s %6s %9s %8s %8s %12s@." "job" "nodes" "runtime" "start"
    "finish" "waited";
  List.iter
    (fun (r : Sched.Metrics.per_job) ->
      Format.printf "%-5d %6d %9.0f %8.0f %8.0f %12.0f%s@." r.job.id r.job.size
        r.job.runtime r.start_time r.end_time
        (r.start_time -. r.job.arrival)
        (if r.start_time = 0.0 && r.job.id <> 0 && r.job.id <> 1 then
           "   <- backfilled"
         else ""))
    sorted;
  Format.printf "@.makespan %.0f s, average turnaround %.0f s@." m.makespan
    m.avg_turnaround_all;
  Format.printf
    "jobs 2 and 4 backfilled ahead of the reserved whole-machine job;@.";
  Format.printf "job 3 would have delayed the reservation and had to wait.@."
