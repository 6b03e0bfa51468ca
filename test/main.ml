(* Aggregated test runner: each Test_* module exports [suite]. *)

let () =
  Alcotest.run "jigsaw"
    [
      ("heap", Test_heap.suite);
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("bitset", Test_bitset.suite);
      ("intsort", Test_intsort.suite);
      ("engine", Test_engine.suite);
      ("topology", Test_topology.suite);
      ("xgft", Test_xgft.suite);
      ("render", Test_render.suite);
      ("state", Test_state.suite);
      ("incremental", Test_incremental.suite);
      ("state-runs", Test_state_runs.suite);
      ("faults", Test_faults.suite);
      ("mask", Test_mask.suite);
      ("shapes", Test_shapes.suite);
      ("conditions", Test_conditions.suite);
      ("search", Test_search.suite);
      ("partition", Test_partition.suite);
      ("least-constrained", Test_least_constrained.suite);
      ("jigsaw", Test_jigsaw.suite);
      ("probe-golden", Test_probe_golden.suite);
      ("matching", Test_matching.suite);
      ("maxflow", Test_maxflow.suite);
      ("path", Test_path.suite);
      ("dmodk", Test_dmodk.suite);
      ("rearrange", Test_rearrange.suite);
      ("partition-routing", Test_partition_routing.suite);
      ("congestion", Test_congestion.suite);
      ("telemetry", Test_telemetry.suite);
      ("fwd", Test_fwd.suite);
      ("greedy", Test_greedy.suite);
      ("necessity", Test_necessity.suite);
      ("feasibility", Test_feasibility.suite);
      ("trace", Test_trace.suite);
      ("swf", Test_swf.suite);
      ("analysis", Test_analysis.suite);
      ("allocators", Test_allocators.suite);
      ("simulator", Test_simulator.suite);
      ("resilience", Test_resilience.suite);
      ("molding", Test_molding.suite);
      ("metrics", Test_metrics.suite);
      ("perf", Test_perf.suite);
      ("reproduction", Test_reproduction.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
    ]
