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

(* The list-and-sort flattening [Partition.to_alloc] used before it
   became one ordered pass, kept as the oracle that pass must match
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

let check_matches_reference what topo p ~bw =
  let a = Partition.to_alloc topo p ~bw in
  let r = reference_to_alloc topo p ~bw in
  Alcotest.(check (array int)) (what ^ " nodes") r.nodes a.nodes;
  Alcotest.(check (array int)) (what ^ " Partition.nodes") r.nodes
    (Partition.nodes p);
  Alcotest.(check (array int)) (what ^ " leaf cables") r.leaf_cables
    a.leaf_cables;
  Alcotest.(check (array int)) (what ^ " l2 cables") r.l2_cables a.l2_cables;
  Alcotest.(check bool) (what ^ " header") true
    (a.job = r.job && a.size = r.size && a.bw = r.bw);
  a

(* Partitions from Jigsaw, LC+S at bandwidths 0.25 and 0.5, and LaaS,
   found on radix-8, radix-16 and radix-48 states loaded by their own
   claims and some releases, each flattened both ways. *)
let test_to_alloc_matches_reference () =
  let rem_trees = ref 0 and rem_leaves = ref 0 and spined = ref 0 in
  let multi_pod_rem = ref 0 in
  List.iter
    (fun (radix, seed, steps) ->
      let topo = Topology.of_radix radix in
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      let n = Topology.num_nodes topo in
      let live = ref [] in
      for job = 1 to steps do
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
              let what = Printf.sprintf "radix %d job %d" radix job in
              let a = check_matches_reference what topo p ~bw in
              (match p.rem_tree with
              | Some tr ->
                  incr rem_trees;
                  if tr.rem_leaf <> None then incr rem_leaves;
                  if radix = 48 && Array.length p.full_trees > 1 then
                    incr multi_pod_rem
              | None -> ());
              if Array.length a.l2_cables > 0 then incr spined;
              State.claim_exn st a;
              live := a :: !live
        end
      done)
    [ (8, 3, 300); (8, 17, 300); (16, 5, 300); (48, 7, 120) ];
  Alcotest.(check bool) "remainder trees covered" true (!rem_trees > 0);
  Alcotest.(check bool) "remainder leaves covered" true (!rem_leaves > 0);
  Alcotest.(check bool) "spine sets covered" true (!spined > 0);
  Alcotest.(check bool) "radix-48 multi-pod remainders covered" true
    (!multi_pod_rem > 0)

(* Hand-built radix-8 partitions (m1 = m2 = 4): leaf [idx] of [pod]
   holding [slots] on L2 indices [l2]. *)
let leaf_at ~pod ~idx ~slots ~l2 =
  {
    Partition.leaf = Topology.leaf_of_coords topo ~pod ~leaf:idx;
    nodes =
      Array.map
        (fun slot -> Topology.node_of_coords topo ~pod ~leaf:idx ~slot)
        slots;
    l2_indices = l2;
  }

let full_leaf ~pod idx =
  leaf_at ~pod ~idx ~slots:[| 0; 1; 2; 3 |] ~l2:[| 0; 1; 2; 3 |]

let tree ~pod ~full ?rem ~spines () =
  {
    Partition.pod;
    full_leaves = Array.map (full_leaf ~pod) full;
    rem_leaf = rem;
    spine_sets = Array.init 4 (fun i -> (i, spines i));
  }

let partition ?rem_tree full_trees =
  let p = { Partition.job = 1; size = 0; full_trees; rem_tree } in
  { p with size = Partition.node_count p }

(* A remainder leaf below its tree's full leaves, and a remainder tree
   below, between and above the full trees: the flattening merges each
   into place. *)
let test_to_alloc_merges_remainders () =
  let all_spines _ = [| 0; 1; 2; 3 |] in
  let rem_leaf ~pod = leaf_at ~pod ~idx:0 ~slots:[| 1; 3 |] ~l2:[| 0; 2 |] in
  let rem_tree pod =
    tree ~pod ~full:[| 2 |] ~rem:(rem_leaf ~pod)
      ~spines:(fun i -> if i mod 2 = 0 then [| 1; 2 |] else [| 3 |])
      ()
  in
  let two_level =
    partition
      [| tree ~pod:5 ~full:[| 1; 3 |] ~rem:(rem_leaf ~pod:5)
           ~spines:(fun _ -> [||]) () |]
  in
  ignore
    (check_matches_reference "remainder leaf first" topo two_level ~bw:1.0);
  List.iter
    (fun rem_pod ->
      let p =
        partition ~rem_tree:(rem_tree rem_pod)
          [| tree ~pod:2 ~full:[| 0; 1; 2; 3 |] ~spines:all_spines ();
             tree ~pod:6 ~full:[| 0; 1; 2; 3 |] ~spines:all_spines () |]
      in
      ignore
        (check_matches_reference
           (Printf.sprintf "remainder tree in pod %d" rem_pod)
           topo p ~bw:1.0))
    [ 0; 4; 7 ]

(* An inner array out of order is rejected, naming the leaf (or the L2
   switch, for a spine array); [Partition.nodes] too when the nodes are
   out of order. *)
let test_to_alloc_rejects_unordered () =
  let rejects ?(nodes_too = false) what ~needle p =
    let check name f =
      match f () with
      | _ -> Alcotest.failf "%s: %s accepted an unordered partition" what name
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s names %s in %S" what name needle msg)
            true (contains ~needle msg)
    in
    check "to_alloc" (fun () -> ignore (Partition.to_alloc topo p ~bw:1.0));
    if nodes_too then check "nodes" (fun () -> ignore (Partition.nodes p))
  in
  let one_leaf la =
    partition
      [| { Partition.pod = 1; full_leaves = [| la |]; rem_leaf = None;
           spine_sets = [||] } |]
  in
  rejects ~nodes_too:true "descending nodes" ~needle:"leaf 5"
    (one_leaf (leaf_at ~pod:1 ~idx:1 ~slots:[| 2; 1 |] ~l2:[| 0; 1 |]));
  rejects ~nodes_too:true "repeated node" ~needle:"leaf 5"
    (one_leaf (leaf_at ~pod:1 ~idx:1 ~slots:[| 1; 1 |] ~l2:[| 0; 1 |]));
  rejects "descending L2 indices" ~needle:"leaf 5"
    (one_leaf (leaf_at ~pod:1 ~idx:1 ~slots:[| 1; 2 |] ~l2:[| 1; 0 |]));
  rejects "L2 index out of range" ~needle:"leaf 5"
    (one_leaf (leaf_at ~pod:1 ~idx:1 ~slots:[| 1; 2 |] ~l2:[| 0; 4 |]));
  rejects ~nodes_too:true "full leaves out of order" ~needle:"leaf 5"
    (partition [| tree ~pod:1 ~full:[| 2; 1 |] ~spines:(fun _ -> [||]) () |]);
  rejects "descending spines" ~needle:"L2 switch 9"
    (partition
       [| tree ~pod:1 ~full:[| 0 |] ~spines:(fun _ -> [| 0 |]) ();
          tree ~pod:2 ~full:[| 0 |]
            ~spines:(fun i -> if i = 1 then [| 1; 0 |] else [| 0 |]) () |])

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
    Alcotest.test_case "to_alloc merges remainders into place" `Quick
      test_to_alloc_merges_remainders;
    Alcotest.test_case "to_alloc rejects unordered input" `Quick
      test_to_alloc_rejects_unordered;
  ]
