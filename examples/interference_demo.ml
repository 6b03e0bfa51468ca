(* Interference demo: what the paper's introduction motivates.

   Two communication-heavy jobs land on a cluster.  Act 1: under
   traditional (Baseline) scheduling their nodes interleave across
   leaves, and static D-mod-k routing maps flows from different jobs
   onto the same channels — the inter-job interference that slows real
   applications by up to 120%.  Act 2: best-effort load-aware rerouting
   (the SAR/AFAR family) spreads the flows and helps, but cannot
   guarantee anything — the pigeonhole bound still forces sharing
   whenever a leaf's traffic exceeds its links.  Act 3: under Jigsaw
   each job gets an isolated partition: zero shared channels, by
   construction.

   Run with:  dune exec examples/interference_demo.exe *)

open Fattree
open Jigsaw_core
open Routing

let topo = Topology.of_radix 16

let () =
  Format.printf "cluster: %a@.@." Topology.pp topo;

  (* --- Traditional scheduling -------------------------------------- *)
  (* After months of churn a traditional scheduler leaves jobs scattered
     over whatever nodes happen to be free; two jobs end up interleaved
     across the same leaves.  We reproduce that state with a seeded
     shuffle of a 128-node region and give each job a random permutation
     of its own traffic. *)
  let prng = Sim.Prng.create ~seed:2021 in
  let region = Array.init 128 Fun.id in
  Sim.Prng.shuffle prng region;
  let job_a = Array.sub region 0 64 in
  let job_b = Array.sub region 64 64 in
  let perm_flows nodes =
    let p = Sim.Prng.permutation prng (Array.length nodes) in
    Array.to_list (Array.mapi (fun i pi -> (nodes.(i), nodes.(pi))) p)
  in
  let paths_a = Dmodk.routes topo (perm_flows job_a) in
  let paths_b = Dmodk.routes topo (perm_flows job_b) in
  let r = Congestion.analyze [ (0, paths_a); (1, paths_b) ] in
  Format.printf "Baseline placement, D-mod-k routing:@.  %a@." Congestion.pp_report r;
  Format.printf "  -> %d%% of flows cross a channel another job is using@.@."
    (100 * r.interfered_flows / r.total_flows);

  (* --- Routing-based mitigation ------------------------------------- *)
  (* Same placement, but a global controller re-routes every flow onto
     the least-loaded minimal path (Scheduling-Aware Routing / AFAR
     style).  Better — but interference remains, and no routing can do
     better than the pigeonhole bound. *)
  let flows_a = perm_flows job_a and flows_b = perm_flows job_b in
  let greedy_paths = Greedy.route topo (flows_a @ flows_b) in
  let na = List.length flows_a in
  let ga = List.filteri (fun i _ -> i < na) greedy_paths in
  let gb = List.filteri (fun i _ -> i >= na) greedy_paths in
  let r2 = Congestion.analyze [ (0, ga); (1, gb) ] in
  Format.printf "Same placement, load-aware rerouting (SAR/AFAR style):@.  %a@."
    Congestion.pp_report r2;
  Format.printf
    "  -> reduced, not eliminated; no routing can beat the pigeonhole bound (%d here)@.@."
    (Greedy.lower_bound_load topo (flows_a @ flows_b));

  (* --- Jigsaw ------------------------------------------------------- *)
  let state = State.create topo in
  let alloc_job job size =
    match Jigsaw.probe state ~job ~size with
    | Partition.Found p ->
        State.claim_exn state (Partition.to_alloc topo p ~bw:1.0);
        p
    | Infeasible | Exhausted -> failwith "allocation failed on an empty machine"
  in
  let pa = alloc_job 0 64 in
  let pb = alloc_job 1 64 in
  let route p =
    let n = Partition.node_count p in
    match
      Rearrange.route_permutation topo p
        ~perm:(Rearrange.demo_permutation ~n ~shift:1)
    with
    | Ok paths -> paths
    | Error m -> failwith m
  in
  let r =
    Congestion.analyze [ (0, route pa); (1, route pb) ]
  in
  Format.printf "Jigsaw partitions, partition routing:@.  %a@." Congestion.pp_report r;
  Format.printf "  -> every channel carries at most one flow; interference is structurally impossible@.";

  (* The isolation is not luck: the two partitions share no cable. *)
  let a = Partition.to_alloc topo pa ~bw:1.0 in
  let b = Partition.to_alloc topo pb ~bw:1.0 in
  Format.printf "  partitions disjoint: %b@." (Alloc.disjoint a b)
