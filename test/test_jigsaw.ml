(* Tests for the Jigsaw allocation algorithm (Algorithm 1). *)

open Fattree
open Jigsaw_core

let claim topo st p = State.claim_exn st (Partition.to_alloc topo p ~bw:1.0)

let alloc_exn st ~job ~size =
  match Jigsaw.probe st ~job ~size with
  | Partition.Found p -> p
  | Infeasible | Exhausted ->
      Alcotest.failf "no allocation for job %d size %d" job size

let test_single_node () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let p = alloc_exn st ~job:0 ~size:1 in
  Alcotest.(check int) "one node" 1 (Partition.node_count p);
  Alcotest.(check bool) "legal" true (Conditions.is_legal topo p);
  Alcotest.(check bool) "two-level" true (Partition.kind p = Two_level)

let test_whole_machine () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let n = Topology.num_nodes topo in
  let p = alloc_exn st ~job:0 ~size:n in
  Alcotest.(check int) "all nodes" n (Partition.node_count p);
  Alcotest.(check bool) "legal" true (Conditions.is_legal topo p)

let test_oversized_rejected () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  Alcotest.(check bool) "too big" true
    (Jigsaw.probe st ~job:0 ~size:(Topology.num_nodes topo + 1)
    = Partition.Infeasible);
  Alcotest.(check bool) "zero" true
    (Jigsaw.probe st ~job:0 ~size:0 = Partition.Infeasible)

let test_prefers_two_level () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  (* Pod capacity is 16; a 16-node job must stay in one pod. *)
  let p = alloc_exn st ~job:0 ~size:16 in
  Alcotest.(check bool) "two-level" true (Partition.kind p = Two_level);
  Alcotest.(check int) "one pod" 1 (List.length (Partition.pods_used p))

let test_three_level_when_needed () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let p = alloc_exn st ~job:0 ~size:17 in
  Alcotest.(check bool) "three-level" true (Partition.kind p = Three_level);
  Alcotest.(check bool) "legal" true (Conditions.is_legal topo p);
  (* The Jigsaw restriction: full leaves in three-level allocations. *)
  Alcotest.(check int) "n_l = m1" (Topology.m1 topo) (Partition.n_l p)

let test_exact_size_always () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  List.iteri
    (fun job size ->
      let p = alloc_exn st ~job ~size in
      Alcotest.(check int) "exact" size (Partition.node_count p);
      claim topo st p)
    [ 5; 17; 3; 29; 1; 16; 40 ]

let test_isolation_between_jobs () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let p1 = alloc_exn st ~job:0 ~size:20 in
  claim topo st p1;
  let p2 = alloc_exn st ~job:1 ~size:20 in
  claim topo st p2;
  (* Claim succeeding proves node disjointness; check cables too. *)
  let a1 = Partition.to_alloc topo p1 ~bw:1.0 in
  let a2 = Partition.to_alloc topo p2 ~bw:1.0 in
  Alcotest.(check bool) "allocs disjoint" true (Alloc.disjoint a1 a2)

let test_whole_leaves_mode_pads () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  (* LaaS mode on a 17-node job: 5 whole leaves = 20 nodes. *)
  match Jigsaw.probe_whole_leaves st ~job:0 ~size:17 with
  | Partition.Infeasible | Partition.Exhausted ->
      Alcotest.fail "no whole-leaf allocation"
  | Partition.Found p ->
      Alcotest.(check int) "padded to whole leaves" 20 (Partition.node_count p);
      Alcotest.(check int) "records requested size" 17 p.size;
      Alcotest.(check bool) "legal modulo padding" true
        (Conditions.is_legal ~require_exact_size:false topo p)

(* The single-pod pass on its own, as LaaS runs it before its whole-leaf
   search (the case keeps the name of the flag that once selected it). *)
let test_two_level_pass () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let two_level size =
    Search.two_level st ~job:0 ~size ~alloc_size:size ~demand:1.0
  in
  Alcotest.(check bool) "17 nodes cannot be two-level" true
    (two_level 17 = None);
  Alcotest.(check bool) "16 nodes can" true (two_level 16 <> None)

let test_fragmented_machine () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  (* Occupy one node on every leaf: no fully-free leaf remains, so no
     three-level allocation can exist, but two-level ones with n_l <= 3
     still can. *)
  for leaf = 0 to Topology.num_leaves topo - 1 do
    State.claim_exn st
      (Alloc.nodes_only ~job:(1000 + leaf) ~size:1
         [| Topology.leaf_first_node topo leaf |])
  done;
  Alcotest.(check bool) "13-in-pod fits (4 leaves x 3 + 1)" true
    (match Jigsaw.probe st ~job:0 ~size:12 with
    | Found _ -> true
    | Infeasible | Exhausted -> false);
  Alcotest.(check bool) "17 needs full leaves and fails" true
    (Jigsaw.probe st ~job:0 ~size:17 = Partition.Infeasible)

let test_link_contention_blocks () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  (* Claim every uplink of leaf 0 without its nodes: a 2-node job can
     still go to another leaf, but a pod-wide job needing leaf 0's links
     must avoid it. *)
  let cables =
    Array.init (Topology.m1 topo) (fun i ->
        Topology.leaf_l2_cable topo ~leaf:0 ~l2_index:i)
  in
  State.claim_exn st
    { Alloc.job = 99; size = 0; nodes = [||]; leaf_cables = cables; l2_cables = [||]; bw = 1.0 };
  let p = alloc_exn st ~job:0 ~size:16 in
  Alcotest.(check bool) "avoids pod 0 or leaf 0" true
    (not (List.mem 0 (List.map (fun (la : Partition.leaf_alloc) -> la.leaf)
                        (Array.to_list (Partition.leaves p)))))

(* Property: random job sequences on random radices always produce legal,
   claimable, exactly-sized partitions. *)
let prop_alloc_legal =
  QCheck2.Test.make ~name:"every Jigsaw allocation is legal and claimable"
    ~count:60
    QCheck2.Gen.(pair (oneofl [ 4; 6; 8 ]) (int_range 0 10_000))
    (fun (radix, seed) ->
      let topo = Topology.of_radix radix in
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      let ok = ref true in
      for job = 0 to 30 do
        let size = Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes topo / 3) in
        match Jigsaw.probe st ~job ~size with
        | Partition.Infeasible | Exhausted -> ()
        | Found p ->
            if not (Conditions.is_legal topo p) then ok := false;
            if Partition.node_count p <> size then ok := false;
            (match State.claim st (Partition.to_alloc topo p ~bw:1.0) with
            | Ok () -> ()
            | Error _ -> ok := false)
      done;
      !ok)

(* Property: claim/release churn never corrupts the state (final frees
   add back to a fully free machine). *)
let prop_churn_conserves =
  QCheck2.Test.make ~name:"alloc/release churn conserves resources" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let topo = Topology.of_radix 6 in
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      let live = ref [] in
      for job = 0 to 60 do
        let size = Sim.Prng.int_in prng ~lo:1 ~hi:20 in
        (match Jigsaw.probe st ~job ~size with
        | Partition.Found p ->
            let a = Partition.to_alloc topo p ~bw:1.0 in
            State.claim_exn st a;
            live := a :: !live
        | Infeasible | Exhausted -> ());
        if Sim.Prng.bool prng && !live <> [] then begin
          match !live with
          | a :: rest ->
              State.release st a;
              live := rest
          | [] -> ()
        end
      done;
      List.iter (State.release st) !live;
      State.total_free_nodes st = Topology.num_nodes topo
      && State.leaf_fully_free st 0)

let suite =
  [
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "whole machine" `Quick test_whole_machine;
    Alcotest.test_case "oversized rejected" `Quick test_oversized_rejected;
    Alcotest.test_case "prefers two-level" `Quick test_prefers_two_level;
    Alcotest.test_case "three-level when needed" `Quick test_three_level_when_needed;
    Alcotest.test_case "exact size always" `Quick test_exact_size_always;
    Alcotest.test_case "isolation between jobs" `Quick test_isolation_between_jobs;
    Alcotest.test_case "whole-leaf (LaaS) mode pads" `Quick test_whole_leaves_mode_pads;
    Alcotest.test_case "two_level_only flag" `Quick test_two_level_pass;
    Alcotest.test_case "fragmented machine" `Quick test_fragmented_machine;
    Alcotest.test_case "link contention avoided" `Quick test_link_contention_blocks;
    QCheck_alcotest.to_alcotest prop_alloc_legal;
    QCheck_alcotest.to_alcotest prop_churn_conserves;
  ]
