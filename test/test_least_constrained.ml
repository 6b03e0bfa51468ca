(* Tests for the least-constrained (LC / LC+S) search. *)

open Fattree
open Jigsaw_core

let topo = Topology.of_radix 8

let test_basic_allocations_legal () =
  let st = State.create topo in
  List.iteri
    (fun job size ->
      match Least_constrained.get_allocation st ~job ~size with
      | None -> Alcotest.failf "size %d failed on empty machine" size
      | Some p ->
          (match Conditions.check topo p with
          | Ok () -> ()
          | Error m -> Alcotest.failf "size %d illegal: %s" size m);
          Alcotest.(check int) "exact" size (Partition.node_count p);
          State.claim_exn st (Partition.to_alloc topo p ~bw:1.0))
    [ 1; 5; 17; 23; 40; 13 ]

let test_more_permissive_than_jigsaw () =
  (* Occupy one node on every leaf: Jigsaw's three-level search needs
     fully-free leaves and fails for a >pod job, while LC can still use
     partial leaves (n_l = 3). *)
  let st = State.create topo in
  for leaf = 0 to Topology.num_leaves topo - 1 do
    State.claim_exn st
      (Alloc.nodes_only ~job:(1000 + leaf) ~size:1
         [| Topology.leaf_first_node topo leaf |])
  done;
  Alcotest.(check bool) "Jigsaw fails" true
    (Jigsaw.get_allocation st ~job:0 ~size:17 = None);
  match Least_constrained.get_allocation st ~job:0 ~size:17 with
  | None -> Alcotest.fail "LC should succeed with n_l <= 3"
  | Some p ->
      Alcotest.(check bool) "legal" true (Conditions.is_legal topo p);
      Alcotest.(check bool) "uses partial leaves" true (Partition.n_l p < 4);
      State.claim_exn st (Partition.to_alloc topo p ~bw:1.0)

let test_fractional_demand_shares_links () =
  let st = State.create topo in
  (* Two 20-node jobs at demand 0.5 share spine cables; exclusive
     (demand 1.0) jobs could not both span pods this way after the
     machine fills.  Just verify both claims succeed at 0.5. *)
  let alloc_one job =
    match Least_constrained.get_allocation ~demand:0.5 st ~job ~size:20 with
    | Some p ->
        State.claim_exn st (Partition.to_alloc topo p ~bw:0.5);
        p
    | None -> Alcotest.failf "job %d failed" job
  in
  let p1 = alloc_one 1 in
  let p2 = alloc_one 2 in
  Alcotest.(check int) "both sized" 40
    (Partition.node_count p1 + Partition.node_count p2)

let test_budget_exhaustion_returns_none () =
  let st = State.create topo in
  (* Tiny budget: the three-level search cannot finish.  (Two-level
     placements carry no budget, so pick a size that spans pods.) *)
  Alcotest.(check bool) "gives up gracefully" true
    (Least_constrained.get_allocation ~budget:1 st ~job:0 ~size:100 = None)

let test_multi_pod_radix48_within_budget () =
  (* 800 nodes span two radix-48 pods; the dense-first shape wants a
     full 24-leaf pod, which the remaining-candidates bound finds in a
     few dozen steps instead of walking all 2^24 leaf subsets. *)
  let topo = Topology.of_radix 48 in
  let st = State.create topo in
  match Least_constrained.probe ~budget:10_000 st ~job:0 ~size:800 with
  | Partition.Found p ->
      Alcotest.(check int) "exact" 800 (Partition.node_count p);
      Alcotest.(check bool) "legal" true (Conditions.is_legal topo p)
  | Partition.Exhausted -> Alcotest.fail "gave up"
  | Partition.Infeasible -> Alcotest.fail "infeasible on an empty machine"

let test_rejects_oversize () =
  let st = State.create topo in
  Alcotest.(check bool) "too big" true
    (Least_constrained.get_allocation st ~job:0 ~size:129 = None)

(* Property: LC succeeds whenever Jigsaw does (it searches a superset of
   the shape space), and its partitions are always legal. *)
let prop_lc_superset_of_jigsaw =
  QCheck2.Test.make ~name:"LC places whatever Jigsaw places" ~count:40
    QCheck2.Gen.(pair (int_range 1 60) (int_range 0 100_000))
    (fun (size, seed) ->
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      (* Light random churn first. *)
      for j = 0 to 6 do
        let s = Sim.Prng.int_in prng ~lo:1 ~hi:16 in
        match Jigsaw.get_allocation st ~job:(500 + j) ~size:s with
        | Some p -> State.claim_exn st (Partition.to_alloc topo p ~bw:1.0)
        | None -> ()
      done;
      match Jigsaw.get_allocation st ~job:0 ~size with
      | None -> true (* nothing to compare *)
      | Some _ -> (
          match Least_constrained.get_allocation st ~job:0 ~size with
          | Some p -> Conditions.is_legal topo p
          | None -> false))

let suite =
  [
    Alcotest.test_case "legal allocations" `Quick test_basic_allocations_legal;
    Alcotest.test_case "more permissive than Jigsaw" `Quick test_more_permissive_than_jigsaw;
    Alcotest.test_case "fractional demands share links" `Quick test_fractional_demand_shares_links;
    Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion_returns_none;
    Alcotest.test_case "oversize rejected" `Quick test_rejects_oversize;
    Alcotest.test_case "radix-48 multi-pod within 10k steps" `Quick
      test_multi_pod_radix48_within_budget;
    QCheck_alcotest.to_alcotest prop_lc_superset_of_jigsaw;
  ]
