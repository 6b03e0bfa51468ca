(* Necessity of the formal conditions (Appendix A.1): allocations that
   violate a condition admit a traffic pattern that cannot be routed with
   one flow per channel.  We witness this with exact max-flow bounds
   (Routing.Feasibility), mirroring the three violations of Figure 1. *)

open Fattree
open Routing

let topo = Topology.of_radix 8 (* m1 = m2 = 4 *)

let node ~leaf ~slot = Topology.leaf_first_node topo leaf + slot
let lcable ~leaf ~i = Topology.leaf_l2_cable topo ~leaf ~l2_index:i

let mk_alloc ~nodes ~leaf_cables ?(l2_cables = [||]) () =
  {
    Alloc.job = 0;
    size = Array.length nodes;
    nodes;
    leaf_cables;
    l2_cables;
    bw = 1.0;
  }

let test_figure1_left_tapering () =
  (* Two leaves with two nodes each but a single uplink per leaf: the two
     sender flows must share a link. *)
  let a0 = node ~leaf:0 ~slot:0 and a1 = node ~leaf:0 ~slot:1 in
  let b0 = node ~leaf:1 ~slot:0 and b1 = node ~leaf:1 ~slot:1 in
  let alloc =
    mk_alloc
      ~nodes:[| a0; a1; b0; b1 |]
      ~leaf_cables:[| lcable ~leaf:0 ~i:0; lcable ~leaf:1 ~i:0 |]
      ()
  in
  let flow =
    Feasibility.max_concurrent_flows topo alloc ~srcs:[| a0; a1 |]
      ~dsts:[| b0; b1 |]
  in
  Alcotest.(check int) "only one cross-leaf flow fits" 1 flow;
  Alcotest.(check bool) "witnesses non-rearrangeability" false
    (Feasibility.supports_permutation_lower_bound topo alloc ~srcs:[| a0; a1 |]
       ~dsts:[| b0; b1 |])

let test_figure1_center_uneven_nodes () =
  (* Leaves with 1, 2 and 3 nodes, per-leaf balanced uplinks {0}, {0,1},
     {0,1,2}: three flows from the 3-node leaf toward the others are
     confined to two usable uplinks. *)
  let c = Array.init 3 (fun s -> node ~leaf:2 ~slot:s) in
  let a = [| node ~leaf:0 ~slot:0 |] in
  let b = Array.init 2 (fun s -> node ~leaf:1 ~slot:s) in
  let alloc =
    mk_alloc
      ~nodes:(Array.concat [ a; b; c ])
      ~leaf_cables:
        [|
          lcable ~leaf:0 ~i:0;
          lcable ~leaf:1 ~i:0;
          lcable ~leaf:1 ~i:1;
          lcable ~leaf:2 ~i:0;
          lcable ~leaf:2 ~i:1;
          lcable ~leaf:2 ~i:2;
        |]
      ()
  in
  let flow =
    Feasibility.max_concurrent_flows topo alloc ~srcs:c
      ~dsts:(Array.append a b)
  in
  Alcotest.(check int) "third flow dead-ends" 2 flow

let test_figure1_right_disconnected () =
  (* Balanced uplinks chosen independently: leaf 0 reaches L2 {0,1},
     leaf 1 reaches L2 {2,3} — no connectivity at all. *)
  let a = Array.init 2 (fun s -> node ~leaf:0 ~slot:s) in
  let b = Array.init 2 (fun s -> node ~leaf:1 ~slot:s) in
  let alloc =
    mk_alloc
      ~nodes:(Array.append a b)
      ~leaf_cables:
        [|
          lcable ~leaf:0 ~i:0;
          lcable ~leaf:0 ~i:1;
          lcable ~leaf:1 ~i:2;
          lcable ~leaf:1 ~i:3;
        |]
      ()
  in
  Alcotest.(check int) "no connectivity" 0
    (Feasibility.max_concurrent_flows topo alloc ~srcs:a ~dsts:b)

let test_spine_mismatch_across_trees () =
  (* Condition 6 violated: two pods whose L2 switches uplink to different
     spines cannot exchange traffic. *)
  let a = Array.init 4 (fun s -> node ~leaf:0 ~slot:s) in
  (* leaf 4 = first leaf of pod 1 *)
  let b = Array.init 4 (fun s -> node ~leaf:4 ~slot:s) in
  let l2_0 = Topology.l2_of_coords topo ~pod:0 ~index:0 in
  let l2_1 = Topology.l2_of_coords topo ~pod:1 ~index:0 in
  let alloc =
    mk_alloc
      ~nodes:(Array.append a b)
      ~leaf_cables:
        (Array.append
           (Array.init 4 (fun i -> lcable ~leaf:0 ~i))
           (Array.init 4 (fun i -> lcable ~leaf:4 ~i)))
      ~l2_cables:
        [|
          Topology.l2_spine_cable topo ~l2:l2_0 ~spine_index:0;
          Topology.l2_spine_cable topo ~l2:l2_1 ~spine_index:1;
        |]
      ()
  in
  (* Cross-pod traffic through L2 index 0 can reach spines only via
     disjoint spine sets; at most 0 flows connect. *)
  Alcotest.(check int) "disjoint spine sets disconnect pods" 0
    (Feasibility.max_concurrent_flows topo alloc ~srcs:a ~dsts:b)

let test_legal_partition_supports_full_permutation () =
  (* Sufficiency cross-check through the same max-flow lens: a legal
     Jigsaw partition supports |A| flows for disjoint halves A, B. *)
  let st = State.create topo in
  match Jigsaw_core.Jigsaw.probe st ~job:0 ~size:24 with
  | Jigsaw_core.Partition.Infeasible | Exhausted ->
      Alcotest.fail "no allocation"
  | Found p ->
      let alloc = Jigsaw_core.Partition.to_alloc topo p ~bw:1.0 in
      let nodes = Jigsaw_core.Partition.nodes topo p in
      let half = Array.length nodes / 2 in
      let srcs = Array.sub nodes 0 half in
      let dsts = Array.sub nodes half half in
      Alcotest.(check int) "half-to-half at full rate" half
        (Feasibility.max_concurrent_flows topo alloc ~srcs ~dsts)

(* Property: for random legal partitions and random disjoint subsets the
   max-flow bound is always met (necessity's contrapositive). *)
let prop_legal_partitions_pass_flow_bound =
  QCheck2.Test.make ~name:"legal partitions meet every subset flow bound"
    ~count:40
    QCheck2.Gen.(pair (int_range 2 40) (int_range 0 100_000))
    (fun (size, seed) ->
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      match Jigsaw_core.Jigsaw.probe st ~job:0 ~size with
      | Jigsaw_core.Partition.Infeasible | Exhausted -> QCheck2.assume_fail ()
      | Found p ->
          let alloc = Jigsaw_core.Partition.to_alloc topo p ~bw:1.0 in
          let nodes = Jigsaw_core.Partition.nodes topo p in
          Sim.Prng.shuffle prng nodes;
          let k = max 1 (Array.length nodes / 2) in
          let srcs = Array.sub nodes 0 k in
          let dsts = Array.sub nodes (Array.length nodes - k) k in
          Feasibility.max_concurrent_flows topo alloc ~srcs ~dsts >= k)

(* ---- Per-lemma counterexamples (Appendix A.1) -------------------- *)

(* Lemma 1: within a tree, two leaves with full-but-unequal node counts
   cannot both exchange full permutation traffic: leaf with 3 nodes and
   leaf with 1 node, each with balanced uplinks to a common switch set.
   A permutation sending all 3 of C's nodes into {A's 1 node + ...} needs
   A-side capacity it does not have; here we check the A->C direction
   bound directly. *)
let test_lemma1_unequal_leaves () =
  (* Leaf 0 carries 3 nodes with uplinks {0,1,2}; leaf 1 carries 1 node
     with uplink {0}; leaf 2 carries 2 nodes with uplinks {0,1}.  Lemma 1
     says equal counts except one remainder: the (3,2,1) arrangement is
     illegal, and indeed 3 flows out of leaf 0 into leaves {1,2} cannot
     all be carried: only 2 usable uplinks lead anywhere. *)
  let c = Array.init 3 (fun s -> node ~leaf:0 ~slot:s) in
  let a = [| node ~leaf:1 ~slot:0 |] in
  let b = Array.init 2 (fun s -> node ~leaf:2 ~slot:s) in
  let alloc =
    mk_alloc
      ~nodes:(Array.concat [ c; a; b ])
      ~leaf_cables:
        [|
          lcable ~leaf:0 ~i:0;
          lcable ~leaf:0 ~i:1;
          lcable ~leaf:0 ~i:2;
          lcable ~leaf:1 ~i:0;
          lcable ~leaf:2 ~i:0;
          lcable ~leaf:2 ~i:1;
        |]
      ()
  in
  Alcotest.(check bool) "3 flows cannot leave leaf 0" false
    (Feasibility.supports_permutation_lower_bound topo alloc ~srcs:c
       ~dsts:(Array.append a b))

(* Lemma 2/5: trees with unequal node counts or inconsistent spine sets
   cannot exchange full traffic.  Two pods, 4 vs 2 nodes, spine uplinks
   sized to their own side only. *)
let test_lemma2_unequal_trees () =
  let a = Array.init 4 (fun s -> node ~leaf:0 ~slot:s) in
  let b = Array.init 2 (fun s -> node ~leaf:4 ~slot:s) in
  let l2_00 = Topology.l2_of_coords topo ~pod:0 ~index:0 in
  let l2_01 = Topology.l2_of_coords topo ~pod:0 ~index:1 in
  let l2_10 = Topology.l2_of_coords topo ~pod:1 ~index:0 in
  let l2_11 = Topology.l2_of_coords topo ~pod:1 ~index:1 in
  (* Pod 0's leaf uses all 4 uplinks; pod 1's leaf only 2.  Spines: one
     per L2 where allocated, common indices {0}. *)
  let alloc =
    mk_alloc
      ~nodes:(Array.append a b)
      ~leaf_cables:
        (Array.append
           (Array.init 4 (fun i -> lcable ~leaf:0 ~i))
           [| lcable ~leaf:4 ~i:0; lcable ~leaf:4 ~i:1 |])
      ~l2_cables:
        [|
          Topology.l2_spine_cable topo ~l2:l2_00 ~spine_index:0;
          Topology.l2_spine_cable topo ~l2:l2_01 ~spine_index:0;
          Topology.l2_spine_cable topo ~l2:l2_10 ~spine_index:0;
          Topology.l2_spine_cable topo ~l2:l2_11 ~spine_index:0;
        |]
      ()
  in
  (* All 4 of pod 0's nodes sending into pod 1 (2 nodes) + ... : already
     the 4 -> {2 nodes} case cannot exist in a permutation; instead
     test: can 3 flows cross from pod 0 to pod 1?  Only 2 spine cables
     reach pod 1. *)
  Alcotest.(check bool) "at most 2 cross-pod flows" true
    (Feasibility.max_concurrent_flows topo alloc ~srcs:a ~dsts:b <= 2)

(* Lemma 4: within a tree, full leaves using different L2 sets lose
   connectivity even when each is balanced (= Figure 1 right, but with
   partial overlap). *)
let test_lemma4_partial_overlap () =
  let a = Array.init 2 (fun s -> node ~leaf:0 ~slot:s) in
  let b = Array.init 2 (fun s -> node ~leaf:1 ~slot:s) in
  let alloc =
    mk_alloc
      ~nodes:(Array.append a b)
      ~leaf_cables:
        [|
          lcable ~leaf:0 ~i:0;
          lcable ~leaf:0 ~i:1;
          lcable ~leaf:1 ~i:1;
          lcable ~leaf:1 ~i:2;
        |]
      ()
  in
  (* Overlap is only {1}: a 2-flow exchange cannot be carried. *)
  Alcotest.(check int) "single common switch" 1
    (Feasibility.max_concurrent_flows topo alloc ~srcs:a ~dsts:b)

(* Condition "balanced uplinks" from the high-utilization side: more
   uplinks than nodes wastes links but still routes; fewer does not.
   The checker rejects both, the flow bound only the latter — showing
   why the balance condition is stated as equality for minimality. *)
let test_balance_asymmetry () =
  let a = Array.init 2 (fun s -> node ~leaf:0 ~slot:s) in
  let b = Array.init 2 (fun s -> node ~leaf:1 ~slot:s) in
  let over =
    mk_alloc
      ~nodes:(Array.append a b)
      ~leaf_cables:
        [|
          lcable ~leaf:0 ~i:0;
          lcable ~leaf:0 ~i:1;
          lcable ~leaf:0 ~i:2;
          lcable ~leaf:1 ~i:0;
          lcable ~leaf:1 ~i:1;
          lcable ~leaf:1 ~i:2;
        |]
      ()
  in
  Alcotest.(check bool) "extra uplinks still route" true
    (Feasibility.supports_permutation_lower_bound topo over ~srcs:a ~dsts:b)

let suite =
  [
    Alcotest.test_case "Figure 1 left: tapering" `Quick test_figure1_left_tapering;
    Alcotest.test_case "Lemma 1: unequal leaves" `Quick test_lemma1_unequal_leaves;
    Alcotest.test_case "Lemma 2: unequal trees" `Quick test_lemma2_unequal_trees;
    Alcotest.test_case "Lemma 4: partial L2 overlap" `Quick test_lemma4_partial_overlap;
    Alcotest.test_case "balance asymmetry" `Quick test_balance_asymmetry;
    Alcotest.test_case "Figure 1 center: uneven nodes" `Quick test_figure1_center_uneven_nodes;
    Alcotest.test_case "Figure 1 right: lost connectivity" `Quick test_figure1_right_disconnected;
    Alcotest.test_case "condition 6: spine mismatch" `Quick test_spine_mismatch_across_trees;
    Alcotest.test_case "legal partition passes flow bound" `Quick test_legal_partition_supports_full_permutation;
    QCheck_alcotest.to_alcotest prop_legal_partitions_pass_flow_bound;
  ]
