(* Scheduler comparison on one workload: a compact version of the
   paper's Figure 6 / Figure 8 experiment.

   Simulates the same synthetic job queue (exponential sizes, heavy
   load, EASY backfilling) under all five placement policies and prints
   utilization, turnaround, makespan and scheduling cost side by side.

   Run with:  dune exec examples/compare_schedulers.exe [-- <n_jobs>] *)

let () =
  let n_jobs =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1200
  in
  let workload =
    Trace.Synthetic.synth ~mean_size:16 ~n_jobs ~seed:1601 ~max_size:1024
  in
  Format.printf "workload: %a@.@." Trace.Workload.pp_summary
    (Trace.Workload.summarize workload);
  Format.printf "%-9s %12s %14s %12s %14s@." "Scheme" "Utilization"
    "Avg turnaround" "Makespan" "Sched (s/job)";
  let baseline_makespan = ref 0.0 in
  List.iter
    (fun (alloc : Sched.Allocator.t) ->
      let cfg = Sched.Simulator.Config.make ~radix:16 alloc in
      (* Assume jobs larger than four nodes run 10% faster in isolation
         (the paper's middle scenario). *)
      let cfg =
        Sched.Simulator.Config.with_scenario (Trace.Scenario.Fixed 10) cfg
      in
      let m = Sched.Simulator.run cfg workload in
      if alloc.name = "Baseline" then baseline_makespan := m.makespan;
      Format.printf "%-9s %11.1f%% %14.0f %12.0f %14.5f%s@." alloc.name
        (100.0 *. m.avg_utilization)
        m.avg_turnaround_all m.makespan m.sched_time_per_job
        (if !baseline_makespan > 0.0 && alloc.name <> "Baseline" then
           Printf.sprintf "   (makespan %.2fx Baseline)"
             (m.makespan /. !baseline_makespan)
         else ""))
    Sched.Allocator.all;
  Format.printf
    "@.Under a modest 10%% isolation speed-up, Jigsaw matches or beats Baseline@.";
  Format.printf
    "throughput while guaranteeing interference freedom; LaaS and TA pay for@.";
  Format.printf "their fragmentation.@."
