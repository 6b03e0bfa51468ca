(* Tests for the partition representation and flattening. *)

open Fattree
open Jigsaw_core

let topo = Topology.of_radix 8

let two_level_fixture () =
  match Jigsaw.probe (State.create topo) ~job:7 ~size:5 with
  | Partition.Found p -> p
  | Infeasible | Exhausted -> Alcotest.fail "fixture"

let three_level_fixture () =
  match Jigsaw.probe (State.create topo) ~job:8 ~size:20 with
  | Partition.Found p -> p
  | Infeasible | Exhausted -> Alcotest.fail "fixture"

let test_kind () =
  Alcotest.(check bool) "2L" true (Partition.kind (two_level_fixture ()) = Two_level);
  Alcotest.(check bool) "3L" true
    (Partition.kind (three_level_fixture ()) = Three_level)

let test_nodes_sorted_unique () =
  let p = three_level_fixture () in
  let nodes = Partition.nodes p in
  Alcotest.(check int) "count" 20 (Array.length nodes);
  for i = 1 to Array.length nodes - 1 do
    Alcotest.(check bool) "ascending" true (nodes.(i) > nodes.(i - 1))
  done

let test_pods_used () =
  let p = three_level_fixture () in
  (* 20 nodes on radix 8 (pod = 16) spans exactly 2 pods under the
     dense-first shape (16 + 4). *)
  Alcotest.(check int) "pods" 2 (List.length (Partition.pods_used p))

let test_n_l_and_s () =
  let p = three_level_fixture () in
  Alcotest.(check int) "full leaves carry m1" 4 (Partition.n_l p);
  Alcotest.(check (array int)) "S = all indices" [| 0; 1; 2; 3 |]
    (Partition.l2_index_set p)

let test_to_alloc_counts () =
  let p = three_level_fixture () in
  let a = Partition.to_alloc topo p ~bw:1.0 in
  Alcotest.(check int) "nodes" 20 (Array.length a.nodes);
  (* Leaf cables: one per (node) since links balance nodes. *)
  Alcotest.(check int) "leaf cables" 20 (Array.length a.leaf_cables);
  (* Spine cables: full tree contributes 4 L2 x l_t=4... here t=1 full
     tree of 4 leaves (16 nodes) and a remainder tree of 1 leaf (4
     nodes).  Full tree: 4 L2 x 4 uplinks = 16; remainder: 4 L2 x 1 = 4. *)
  Alcotest.(check int) "l2 cables" 20 (Array.length a.l2_cables);
  Alcotest.(check (float 1e-9)) "bw" 1.0 a.bw;
  Alcotest.(check int) "job id" 8 a.job

let test_to_alloc_two_level_no_spines () =
  let p = two_level_fixture () in
  let a = Partition.to_alloc topo p ~bw:0.25 in
  Alcotest.(check int) "no spine cables" 0 (Array.length a.l2_cables);
  Alcotest.(check int) "leaf cables = nodes" 5 (Array.length a.leaf_cables);
  Alcotest.(check (float 1e-9)) "fractional bw" 0.25 a.bw

let test_leaves_accessor () =
  let p = three_level_fixture () in
  let leaves = Partition.leaves p in
  Alcotest.(check int) "five leaves (4 full + 1 rem-tree leaf)" 5
    (Array.length leaves)

let test_node_count_matches () =
  let p = two_level_fixture () in
  Alcotest.(check int) "node_count" 5 (Partition.node_count p);
  Alcotest.(check int) "nodes array" 5 (Array.length (Partition.nodes p))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_pp_runs () =
  let p = three_level_fixture () in
  let s = Format.asprintf "%a" Partition.pp p in
  Alcotest.(check bool) "mentions job" true (contains ~needle:"job=8" s);
  Alcotest.(check bool) "mentions level" true (contains ~needle:"three-level" s)

(* The list-based flattening [Partition.to_alloc] used before it filled
   presized arrays, kept as the reference the array builder must match
   element for element. *)
let reference_to_alloc topo (p : Partition.t) ~bw =
  let trees = Array.to_list p.full_trees @ Option.to_list p.rem_tree in
  let leaves =
    List.concat_map
      (fun (tr : Partition.tree_alloc) ->
        Array.to_list tr.full_leaves @ Option.to_list tr.rem_leaf)
      trees
  in
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  let nodes =
    sorted
      (List.concat_map
         (fun (la : Partition.leaf_alloc) -> Array.to_list la.nodes)
         leaves)
  in
  let leaf_cables =
    List.concat_map
      (fun (la : Partition.leaf_alloc) ->
        List.map
          (fun i -> Topology.leaf_l2_cable topo ~leaf:la.leaf ~l2_index:i)
          (Array.to_list la.l2_indices))
      leaves
  in
  let l2_cables =
    List.concat_map
      (fun (tr : Partition.tree_alloc) ->
        List.concat_map
          (fun (i, spines) ->
            let l2 = Topology.l2_of_coords topo ~pod:tr.pod ~index:i in
            List.map
              (fun j -> Topology.l2_spine_cable topo ~l2 ~spine_index:j)
              (Array.to_list spines))
          (Array.to_list tr.spine_sets))
      trees
  in
  {
    Alloc.job = p.job;
    size = p.size;
    nodes;
    leaf_cables = sorted leaf_cables;
    l2_cables = sorted l2_cables;
    bw;
  }

(* Partitions from Jigsaw, LC+S at bandwidths 0.25 and 0.5, and LaaS,
   found on radix-8 and radix-16 states loaded by their own claims and
   some releases, each flattened both ways. *)
let test_to_alloc_matches_reference () =
  let rem_trees = ref 0 and rem_leaves = ref 0 and spined = ref 0 in
  List.iter
    (fun (radix, seed) ->
      let topo = Topology.of_radix radix in
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      let n = Topology.num_nodes topo in
      let live = ref [] in
      for job = 1 to 300 do
        if Sim.Prng.int prng ~bound:4 = 0 && !live <> [] then begin
          let k = Sim.Prng.int prng ~bound:(List.length !live) in
          let a = List.nth !live k in
          State.release st a;
          live := List.filter (fun b -> b != a) !live
        end
        else begin
          let size = Sim.Prng.int_in prng ~lo:1 ~hi:(n / 6) in
          let found, bw =
            match Sim.Prng.int prng ~bound:4 with
            | 0 -> (Jigsaw.probe st ~job ~size, 1.0)
            | 1 ->
                (Least_constrained.probe ~demand:0.25 st ~job ~size, 0.25)
            | 2 ->
                (Least_constrained.probe ~demand:0.5 st ~job ~size, 0.5)
            | _ -> (Baselines.Laas.probe st ~job ~size, 1.0)
          in
          match found with
          | Partition.Infeasible | Exhausted -> ()
          | Found p ->
              let a = Partition.to_alloc topo p ~bw in
              let r = reference_to_alloc topo p ~bw in
              let what = Printf.sprintf "radix %d job %d" radix job in
              Alcotest.(check (array int)) (what ^ " nodes") r.nodes a.nodes;
              Alcotest.(check (array int)) (what ^ " Partition.nodes") r.nodes
                (Partition.nodes p);
              Alcotest.(check (array int)) (what ^ " leaf cables") r.leaf_cables
                a.leaf_cables;
              Alcotest.(check (array int)) (what ^ " l2 cables") r.l2_cables
                a.l2_cables;
              Alcotest.(check bool) (what ^ " header") true
                (a.job = r.job && a.size = r.size && a.bw = r.bw);
              (match p.rem_tree with
              | Some tr ->
                  incr rem_trees;
                  if tr.rem_leaf <> None then incr rem_leaves
              | None -> ());
              if Array.length a.l2_cables > 0 then incr spined;
              State.claim_exn st a;
              live := a :: !live
        end
      done)
    [ (8, 3); (8, 17); (16, 5) ];
  Alcotest.(check bool) "remainder trees covered" true (!rem_trees > 0);
  Alcotest.(check bool) "remainder leaves covered" true (!rem_leaves > 0);
  Alcotest.(check bool) "spine sets covered" true (!spined > 0)

let suite =
  [
    Alcotest.test_case "kind" `Quick test_kind;
    Alcotest.test_case "nodes sorted unique" `Quick test_nodes_sorted_unique;
    Alcotest.test_case "pods used" `Quick test_pods_used;
    Alcotest.test_case "n_l and S" `Quick test_n_l_and_s;
    Alcotest.test_case "to_alloc cable counts" `Quick test_to_alloc_counts;
    Alcotest.test_case "two-level flattening" `Quick test_to_alloc_two_level_no_spines;
    Alcotest.test_case "leaves accessor" `Quick test_leaves_accessor;
    Alcotest.test_case "node_count" `Quick test_node_count_matches;
    Alcotest.test_case "pretty printing" `Quick test_pp_runs;
    Alcotest.test_case "to_alloc matches list reference" `Quick
      test_to_alloc_matches_reference;
  ]
