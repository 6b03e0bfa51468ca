(* Semantics of the comparison allocators: Baseline, TA, LaaS. *)

open Fattree

let topo = Topology.of_radix 8 (* m1 = m2 = 4, pod = 16, 128 nodes *)

let test_baseline_first_fit () =
  let st = State.create topo in
  (match Baselines.Baseline.get_allocation st ~job:0 ~size:5 with
  | Some a ->
      Alcotest.(check (array int)) "first five ids" [| 0; 1; 2; 3; 4 |] a.nodes;
      State.claim_exn st a
  | None -> Alcotest.fail "alloc failed");
  match Baselines.Baseline.get_allocation st ~job:1 ~size:2 with
  | Some a -> Alcotest.(check (array int)) "next free" [| 5; 6 |] a.nodes
  | None -> Alcotest.fail "alloc failed"

let test_baseline_capacity () =
  let st = State.create topo in
  Alcotest.(check bool) "over capacity" true
    (Baselines.Baseline.get_allocation st ~job:0 ~size:129 = None);
  match Baselines.Baseline.get_allocation st ~job:0 ~size:128 with
  | Some a -> Alcotest.(check int) "whole machine" 128 (Array.length a.nodes)
  | None -> Alcotest.fail "whole machine"

let test_ta_classify () =
  Alcotest.(check bool) "small" true (Baselines.Ta.classify topo 4 = `Small);
  Alcotest.(check bool) "medium" true (Baselines.Ta.classify topo 5 = `Medium);
  Alcotest.(check bool) "medium edge" true (Baselines.Ta.classify topo 16 = `Medium);
  Alcotest.(check bool) "large" true (Baselines.Ta.classify topo 17 = `Large)

let test_ta_small_single_leaf () =
  let st = State.create topo in
  match Baselines.Ta.get_allocation st ~job:0 ~size:3 with
  | Some a ->
      let leaves =
        List.sort_uniq compare
          (Array.to_list (Array.map (Topology.node_leaf topo) a.nodes))
      in
      Alcotest.(check int) "one leaf" 1 (List.length leaves);
      Alcotest.(check int) "no links claimed" 0 (Array.length a.leaf_cables)
  | None -> Alcotest.fail "alloc failed"

let test_ta_small_external_fragmentation () =
  (* Figure 2 right: enough nodes, but no single leaf has three free. *)
  let st = State.create topo in
  for leaf = 0 to Topology.num_leaves topo - 1 do
    let first = Topology.leaf_first_node topo leaf in
    State.claim_exn st (Alloc.nodes_only ~job:(100 + leaf) ~size:2 [| first; first + 1 |])
  done;
  Alcotest.(check int) "64 nodes free" 64 (State.total_free_nodes st);
  Alcotest.(check bool) "3-node job cannot be placed" true
    (Baselines.Ta.get_allocation st ~job:0 ~size:3 = None);
  Alcotest.(check bool) "2-node job fits" true
    (Baselines.Ta.get_allocation st ~job:0 ~size:2 <> None)

let test_ta_medium_reserves_links () =
  let st = State.create topo in
  (match Baselines.Ta.get_allocation st ~job:0 ~size:6 with
  | Some a ->
      State.claim_exn st a;
      (* 6 nodes over ceil(6/4)=2 leaves, all uplinks of both claimed. *)
      Alcotest.(check int) "nodes exact" 6 (Array.length a.nodes);
      Alcotest.(check int) "two leaves' cables" 8 (Array.length a.leaf_cables);
      let pods =
        List.sort_uniq compare
          (Array.to_list (Array.map (Topology.node_pod topo) a.nodes))
      in
      Alcotest.(check int) "single pod" 1 (List.length pods)
  | None -> Alcotest.fail "alloc failed");
  (* The medium filled leaf 0 and half of leaf 1; the 2 leftover nodes
     on leaf 1 remain usable by a leaf-sized job even though leaf 1's
     links are reserved. *)
  match Baselines.Ta.get_allocation st ~job:1 ~size:2 with
  | Some a ->
      Alcotest.(check bool) "small reuses leftover nodes" true
        (Array.for_all (fun n -> Topology.node_leaf topo n = 1) a.nodes)
  | None -> Alcotest.fail "small should fit on leftovers"

let test_ta_mediums_share_pod_on_disjoint_leaves () =
  let st = State.create topo in
  (match Baselines.Ta.get_allocation st ~job:0 ~size:8 with
  | Some a -> State.claim_exn st a
  | None -> Alcotest.fail "first medium");
  (* Pod 0 has 2 leaves with free links left; another 8-node medium fits
     there. *)
  match Baselines.Ta.get_allocation st ~job:1 ~size:8 with
  | Some a ->
      let pods =
        List.sort_uniq compare
          (Array.to_list (Array.map (Topology.node_pod topo) a.nodes))
      in
      Alcotest.(check (list int)) "same pod, other leaves" [ 0 ] pods
  | None -> Alcotest.fail "second medium"

let test_ta_large_whole_pods () =
  let st = State.create topo in
  match Baselines.Ta.get_allocation st ~job:0 ~size:20 with
  | Some a ->
      State.claim_exn st a;
      Alcotest.(check int) "exact nodes" 20 (Array.length a.nodes);
      (* 2 pods' links reserved: 2 * 16 leaf cables + 2 * 16 l2 cables. *)
      Alcotest.(check int) "leaf cables" 32 (Array.length a.leaf_cables);
      Alcotest.(check int) "l2 cables" 32 (Array.length a.l2_cables);
      (* No medium can now use pods 0-1; it must land in pod 2. *)
      (match Baselines.Ta.get_allocation st ~job:1 ~size:6 with
      | Some b ->
          let pods =
            List.sort_uniq compare
              (Array.to_list (Array.map (Topology.node_pod topo) b.nodes))
          in
          Alcotest.(check (list int)) "next pod" [ 2 ] pods
      | None -> Alcotest.fail "medium after large")
  | None -> Alcotest.fail "large alloc"

let test_laas_two_level_no_padding () =
  let st = State.create topo in
  match Baselines.Laas.probe st ~job:0 ~size:11 with
  | Jigsaw_core.Partition.Found p ->
      Alcotest.(check int) "exact within a pod" 11
        (Jigsaw_core.Partition.node_count p);
      Alcotest.(check bool) "single pod" true
        (List.length (Jigsaw_core.Partition.pods_used p) = 1)
  | Infeasible | Exhausted -> Alcotest.fail "alloc failed"

let test_laas_three_level_pads () =
  let st = State.create topo in
  match Baselines.Laas.probe st ~job:0 ~size:18 with
  | Jigsaw_core.Partition.Found p ->
      (* 18 -> 5 whole leaves = 20 nodes. *)
      Alcotest.(check int) "padded" 20 (Jigsaw_core.Partition.node_count p);
      Alcotest.(check int) "requested recorded" 18 p.size;
      Alcotest.(check bool) "legal modulo padding" true
        (Jigsaw_core.Conditions.is_legal ~require_exact_size:false topo p)
  | Infeasible | Exhausted -> Alcotest.fail "alloc failed"

let test_allocators_registry () =
  Alcotest.(check int) "five schemes" 5 (List.length Sched.Allocator.all);
  Alcotest.(check bool) "baseline not isolating" false
    Sched.Allocator.baseline.isolating;
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Result.is_ok (Sched.Allocator.by_name name)))
    [ "Baseline"; "LC+S"; "Jigsaw"; "LaaS"; "TA" ]

(* Cross-scheme sanity: on a fresh machine every scheme can place any
   feasible job, and placements are claimable. *)
let prop_all_allocators_place_on_empty =
  QCheck2.Test.make ~name:"all schemes place feasible jobs on empty cluster"
    ~count:60
    QCheck2.Gen.(int_range 1 128)
    (fun size ->
      List.for_all
        (fun (a : Sched.Allocator.t) ->
          let st = State.create topo in
          let job = Trace.Job.v ~id:0 ~size ~runtime:1.0 () in
          match a.probe_sized st job with
          | Sized { alloc; _ } -> Result.is_ok (State.claim st alloc)
          | Sized_no_fit | Sized_gave_up ->
              (* LaaS legitimately fails when padding exceeds the
                 machine. *)
              a.name = "LaaS" && (size + 3) / 4 * 4 > 128)
        Sched.Allocator.all)

let suite =
  [
    Alcotest.test_case "baseline first fit" `Quick test_baseline_first_fit;
    Alcotest.test_case "baseline capacity" `Quick test_baseline_capacity;
    Alcotest.test_case "TA classification" `Quick test_ta_classify;
    Alcotest.test_case "TA small in single leaf" `Quick test_ta_small_single_leaf;
    Alcotest.test_case "TA external fragmentation (Fig 2 right)" `Quick test_ta_small_external_fragmentation;
    Alcotest.test_case "TA medium reserves links (Fig 2 center)" `Quick test_ta_medium_reserves_links;
    Alcotest.test_case "TA mediums share pods" `Quick test_ta_mediums_share_pod_on_disjoint_leaves;
    Alcotest.test_case "TA large takes whole pods" `Quick test_ta_large_whole_pods;
    Alcotest.test_case "LaaS exact within a pod" `Quick test_laas_two_level_no_padding;
    Alcotest.test_case "LaaS pads across pods (Fig 2 left)" `Quick test_laas_three_level_pads;
    Alcotest.test_case "allocator registry" `Quick test_allocators_registry;
    QCheck_alcotest.to_alcotest prop_all_allocators_place_on_empty;
  ]
