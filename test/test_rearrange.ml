(* Tests for the constructive rearrangeable-non-blocking router — the
   executable form of the paper's Theorems 5 and 6. *)

open Fattree
open Jigsaw_core
open Routing

let route_ok topo p perm =
  match Rearrange.route_and_verify topo p ~perm with
  | Ok paths -> paths
  | Error m -> Alcotest.failf "routing failed: %s" m

let alloc_and_claim topo st ~job ~size =
  match Jigsaw.probe st ~job ~size with
  | Partition.Infeasible | Exhausted ->
      Alcotest.failf "no allocation for size %d" size
  | Found p ->
      State.claim_exn st (Partition.to_alloc topo p ~bw:1.0);
      p

let test_identity_permutation () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let p = alloc_and_claim topo st ~job:0 ~size:10 in
  let n = Partition.node_count p in
  let paths = route_ok topo p (Array.init n Fun.id) in
  Alcotest.(check int) "one path per flow" n (List.length paths)

let test_shift_permutations () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let p = alloc_and_claim topo st ~job:0 ~size:23 in
  let n = Partition.node_count p in
  for shift = 0 to n - 1 do
    ignore (route_ok topo p (Rearrange.demo_permutation ~n ~shift))
  done

let test_full_machine_is_rearrangeable () =
  (* Theorem 5: the full tree itself. *)
  let topo = Topology.of_radix 4 in
  let st = State.create topo in
  let p = alloc_and_claim topo st ~job:0 ~size:(Topology.num_nodes topo) in
  let n = Topology.num_nodes topo in
  let prng = Sim.Prng.create ~seed:5 in
  for _ = 1 to 30 do
    ignore (route_ok topo p (Sim.Prng.permutation prng n))
  done

let test_rejects_bad_perm () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let p = alloc_and_claim topo st ~job:0 ~size:4 in
  (match Rearrange.route_permutation topo p ~perm:[| 0; 0; 1; 2 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-permutation accepted");
  match Rearrange.route_permutation topo p ~perm:[| 0; 1 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong-length permutation accepted"

let test_rejects_illegal_partition () =
  let topo = Topology.of_radix 8 in
  (* Hand-build the Figure-1-left violation: 2 nodes, 1 uplink. *)
  let p =
    {
      Partition.job = 0;
      size = 2;
      full_trees =
        [|
          {
            Partition.pod = 0;
            full_leaves =
              [| { Partition.leaf = 0; nodes = [| 0; 1 |]; l2_indices = [| 0 |] } |];
            rem_leaf = None;
            spine_sets = [||];
          };
        |];
      rem_tree = None;
    }
  in
  match Rearrange.route_permutation topo p ~perm:[| 1; 0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "illegal partition accepted"

let test_paths_have_node_endpoints () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let p = alloc_and_claim topo st ~job:0 ~size:9 in
  let nodes = Partition.nodes p in
  let n = Array.length nodes in
  let perm = Rearrange.demo_permutation ~n ~shift:3 in
  let paths = route_ok topo p perm in
  (* Every (src, dst) pair of the permutation appears exactly once. *)
  let expect =
    List.sort compare
      (Array.to_list (Array.mapi (fun k d -> (nodes.(k), nodes.(d))) perm))
  in
  let got =
    List.sort compare (List.map (fun (pa : Path.t) -> (pa.src, pa.dst)) paths)
  in
  Alcotest.(check (list (pair int int))) "flows" expect got

(* The central property: any permutation over any Jigsaw partition routes
   with one flow per channel on allocated cables only. *)
let prop_jigsaw_partitions_rearrangeable =
  QCheck2.Test.make
    ~name:"Jigsaw partitions are rearrangeable non-blocking (Thm 6)" ~count:40
    QCheck2.Gen.(pair (oneofl [ 4; 6; 8 ]) (int_range 0 100_000))
    (fun (radix, seed) ->
      let topo = Topology.of_radix radix in
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      let ok = ref true in
      for job = 0 to 10 do
        let size = Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes topo / 2) in
        match Jigsaw.probe st ~job ~size with
        | Partition.Infeasible | Exhausted -> ()
        | Found p ->
            State.claim_exn st (Partition.to_alloc topo p ~bw:1.0);
            let n = Partition.node_count p in
            for _ = 1 to 3 do
              let perm = Sim.Prng.permutation prng n in
              match Rearrange.route_and_verify topo p ~perm with
              | Ok _ -> ()
              | Error _ -> ok := false
            done
      done;
      !ok)

(* Same for the least-constrained search (any n_l), which exercises
   partitions Jigsaw itself never produces. *)
let prop_lc_partitions_rearrangeable =
  QCheck2.Test.make
    ~name:"LC partitions are rearrangeable non-blocking" ~count:25
    QCheck2.Gen.(pair (oneofl [ 4; 6 ]) (int_range 0 100_000))
    (fun (radix, seed) ->
      let topo = Topology.of_radix radix in
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      let ok = ref true in
      for job = 0 to 8 do
        let size = Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes topo / 2) in
        match Least_constrained.probe st ~job ~size with
        | Partition.Infeasible | Exhausted -> ()
        | Found p ->
            State.claim_exn st (Partition.to_alloc topo p ~bw:1.0);
            let n = Partition.node_count p in
            let perm = Sim.Prng.permutation prng n in
            (match Rearrange.route_and_verify topo p ~perm with
            | Ok _ -> ()
            | Error _ -> ok := false)
      done;
      !ok)

(* LaaS's padded partitions must also route (they satisfy the conditions
   modulo N = Nr). *)
let prop_laas_partitions_rearrangeable =
  QCheck2.Test.make ~name:"LaaS partitions are rearrangeable non-blocking"
    ~count:25
    QCheck2.Gen.(pair (oneofl [ 4; 6; 8 ]) (int_range 0 100_000))
    (fun (radix, seed) ->
      let topo = Topology.of_radix radix in
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      let ok = ref true in
      for job = 0 to 8 do
        let size = Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes topo / 2) in
        match Baselines.Laas.probe st ~job ~size with
        | Partition.Infeasible | Exhausted -> ()
        | Found p ->
            State.claim_exn st (Partition.to_alloc topo p ~bw:1.0);
            let n = Partition.node_count p in
            let perm = Sim.Prng.permutation prng n in
            (match Rearrange.route_and_verify topo p ~perm with
            | Ok _ -> ()
            | Error _ -> ok := false)
      done;
      !ok)

(* The machinery is not tied to square radix-k trees: any full-bandwidth
   XGFT(3; m1, m2, m3) — including the paper's Figure 10 shape — must
   allocate and route identically. *)
let prop_custom_topologies_rearrangeable =
  QCheck2.Test.make ~name:"non-square XGFTs allocate and route" ~count:30
    QCheck2.Gen.(
      quad (int_range 1 5) (int_range 1 5) (int_range 1 5) (int_range 0 100_000))
    (fun (m1, m2, m3, seed) ->
      let topo =
        Topology.create ~nodes_per_leaf:m1 ~leaves_per_pod:m2 ~pods:m3
      in
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      let ok = ref true in
      for job = 0 to 6 do
        let size = Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes topo) in
        match Jigsaw.probe st ~job ~size with
        | Partition.Infeasible | Exhausted -> ()
        | Found p ->
            if not (Conditions.is_legal topo p) then ok := false;
            State.claim_exn st (Partition.to_alloc topo p ~bw:1.0);
            let n = Partition.node_count p in
            let perm = Sim.Prng.permutation prng n in
            (match Rearrange.route_and_verify topo p ~perm with
            | Ok _ -> ()
            | Error _ -> ok := false)
      done;
      !ok)

let test_route_traffic_partial () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let p = alloc_and_claim topo st ~job:0 ~size:12 in
  let nodes = Partition.nodes p in
  (* Three flows of a gather pattern. *)
  let flows =
    [ (nodes.(0), nodes.(5)); (nodes.(1), nodes.(7)); (nodes.(2), nodes.(11)) ]
  in
  (match Rearrange.route_traffic topo p ~flows with
  | Error m -> Alcotest.fail m
  | Ok paths ->
      Alcotest.(check int) "only requested flows returned" 3 (List.length paths);
      Alcotest.(check bool) "no contention" true
        (Path.max_channel_load paths <= 1);
      let alloc = Partition.to_alloc topo p ~bw:1.0 in
      Alcotest.(check bool) "allocated cables only" true
        (Path.uses_only alloc paths = Ok ()));
  (* Invalid patterns are rejected. *)
  (match Rearrange.route_traffic topo p ~flows:[ (nodes.(0), nodes.(1)); (nodes.(0), nodes.(2)) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double sender accepted");
  match Rearrange.route_traffic topo p ~flows:[ (999, nodes.(1)) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign node accepted"

let test_figure10_tree () =
  (* The paper's Figure 10: XGFT(3; 2,3,2; 1,2,3), 12 nodes. *)
  let topo = Topology.create ~nodes_per_leaf:2 ~leaves_per_pod:3 ~pods:2 in
  let st = State.create topo in
  match Jigsaw.probe st ~job:0 ~size:9 with
  | Partition.Infeasible | Exhausted -> Alcotest.fail "9 of 12 nodes must fit"
  | Found p ->
      Alcotest.(check bool) "legal" true (Conditions.is_legal topo p);
      let n = Partition.node_count p in
      for shift = 0 to n - 1 do
        ignore (route_ok topo p (Rearrange.demo_permutation ~n ~shift))
      done

let suite =
  [
    Alcotest.test_case "identity permutation" `Quick test_identity_permutation;
    Alcotest.test_case "Figure 10 tree" `Quick test_figure10_tree;
    Alcotest.test_case "partial traffic routing" `Quick test_route_traffic_partial;
    Alcotest.test_case "all shift permutations" `Quick test_shift_permutations;
    Alcotest.test_case "full machine (Thm 5)" `Quick test_full_machine_is_rearrangeable;
    Alcotest.test_case "rejects bad permutations" `Quick test_rejects_bad_perm;
    Alcotest.test_case "rejects illegal partitions" `Quick test_rejects_illegal_partition;
    Alcotest.test_case "paths carry the right endpoints" `Quick test_paths_have_node_endpoints;
    QCheck_alcotest.to_alcotest prop_jigsaw_partitions_rearrangeable;
    QCheck_alcotest.to_alcotest prop_lc_partitions_rearrangeable;
    QCheck_alcotest.to_alcotest prop_laas_partitions_rearrangeable;
    QCheck_alcotest.to_alcotest prop_custom_topologies_rearrangeable;
  ]
