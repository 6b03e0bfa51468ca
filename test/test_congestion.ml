(* Tests for inter-job interference measurement — and the headline
   semantic claim: Jigsaw partitions produce zero inter-job channel
   sharing where Baseline placement does not. *)

open Fattree
open Jigsaw_core
open Routing

let topo = Topology.of_radix 8

let test_no_jobs () =
  let r = Congestion.analyze [] in
  Alcotest.(check int) "no flows" 0 r.total_flows;
  Alcotest.(check int) "no sharing" 0 r.shared_channels

let test_single_job_not_interference () =
  (* A single job sharing its own channels is intra-job, not counted. *)
  let flows = [ (0, 64); (8, 64) ] in
  let r = Congestion.analyze [ (1, Dmodk.routes topo flows) ] in
  Alcotest.(check int) "no cross-job share" 0 r.shared_channels;
  Alcotest.(check int) "flows counted" 2 r.total_flows

let test_cross_job_interference_detected () =
  (* Two jobs whose nodes share leaf 0: their flows to destinations with
     equal slot indices pick the same D-mod-k uplink channel. *)
  let j1 = Dmodk.routes topo [ (0, 16) ] in
  let j2 = Dmodk.routes topo [ (1, 32) ] in
  let r = Congestion.analyze [ (1, j1); (2, j2) ] in
  Alcotest.(check bool) "shared channels > 0" true (r.shared_channels > 0);
  Alcotest.(check int) "both flows interfered" 2 r.interfered_flows

let test_jigsaw_partitions_never_interfere () =
  (* Claim a handful of Jigsaw partitions and route random permutations
     inside each: no channel is shared across jobs, ever. *)
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed:31 in
  let jobs = ref [] in
  List.iteri
    (fun job size ->
      match Jigsaw.probe st ~job ~size with
      | Partition.Infeasible | Exhausted -> ()
      | Found p ->
          State.claim_exn st (Partition.to_alloc topo p ~bw:1.0);
          let n = Partition.node_count p in
          let perm = Sim.Prng.permutation prng n in
          (match Rearrange.route_permutation topo p ~perm with
          | Ok paths -> jobs := (job, paths) :: !jobs
          | Error m -> Alcotest.fail m))
    [ 17; 23; 9; 40; 12 ];
  let r = Congestion.analyze !jobs in
  Alcotest.(check bool) "several jobs placed" true (List.length !jobs >= 4);
  Alcotest.(check int) "zero shared channels" 0 r.shared_channels;
  Alcotest.(check int) "zero interfered flows" 0 r.interfered_flows;
  Alcotest.(check bool) "max load 1" true (r.max_load <= 1)

let test_baseline_scattering_interferes () =
  (* Baseline scatters jobs across shared leaves with no network
     awareness.  Two interleaved jobs running all-to-next-leaf traffic:
     flows from the same source leaf with equal destination slots land on
     the same uplink channel. *)
  (* Both jobs hold nodes on leaf 0 and stream to slot-0/1 destinations
     elsewhere: D-mod-k picks the same two uplinks of leaf 0 for both. *)
  let paths1 = Dmodk.routes topo [ (0, 16); (1, 17) ] in
  let paths2 = Dmodk.routes topo [ (2, 32); (3, 33) ] in
  let r = Congestion.analyze [ (1, paths1); (2, paths2) ] in
  Alcotest.(check bool) "interference exists" true (r.interfered_flows > 0)

let suite =
  [
    Alcotest.test_case "empty analysis" `Quick test_no_jobs;
    Alcotest.test_case "intra-job sharing not counted" `Quick test_single_job_not_interference;
    Alcotest.test_case "cross-job sharing detected" `Quick test_cross_job_interference_detected;
    Alcotest.test_case "Jigsaw partitions never interfere" `Quick test_jigsaw_partitions_never_interfere;
    Alcotest.test_case "scattered placement interferes" `Quick test_baseline_scattering_interferes;
  ]
