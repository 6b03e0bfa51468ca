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
  let nodes = Partition.nodes topo p in
  Alcotest.(check int) "count" 20 (Array.length nodes);
  for i = 1 to Array.length nodes - 1 do
    Alcotest.(check bool) "ascending" true (nodes.(i) > nodes.(i - 1))
  done

let test_pods_used () =
  let p = three_level_fixture () in
  (* 20 nodes on radix 8 (pod = 16) spans exactly 2 pods under the
     dense-first shape (16 + 4). *)
  Alcotest.(check int) "pods" 2
    (Array.length p.full_trees + Option.fold ~none:0 ~some:(fun _ -> 1) p.rem_tree)

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
  let trees = Array.to_list p.full_trees @ Option.to_list p.rem_tree in
  let leaves =
    List.concat_map
      (fun (tr : Partition.tree_alloc) ->
        Array.to_list tr.full_leaves @ Option.to_list tr.rem_leaf)
      trees
  in
  Alcotest.(check int) "five leaves (4 full + 1 rem-tree leaf)" 5
    (List.length leaves);
  (* The array views of the first full leaf: every slot and uplink. *)
  let la = List.hd leaves in
  let first = Topology.leaf_first_node topo la.leaf in
  Alcotest.(check (array int)) "leaf_nodes"
    [| first; first + 1; first + 2; first + 3 |]
    (Partition.leaf_nodes topo la);
  Alcotest.(check (array int)) "leaf_l2_indices" [| 0; 1; 2; 3 |]
    (Partition.leaf_l2_indices la)

let test_node_count_matches () =
  let p = two_level_fixture () in
  Alcotest.(check int) "node_count" 5 (Partition.node_count p);
  Alcotest.(check int) "nodes array" 5 (Array.length (Partition.nodes topo p))

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
   became one ordered pass, over the array views, kept as the oracle
   that pass must match element for element. *)
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
         (fun la -> Array.to_list (Partition.leaf_nodes topo la))
         leaves)
  in
  let leaf_cables =
    List.concat_map
      (fun (la : Partition.leaf_alloc) ->
        List.map
          (fun i -> Topology.leaf_l2_cable topo ~leaf:la.leaf ~l2_index:i)
          (Array.to_list (Partition.leaf_l2_indices la)))
      leaves
  in
  let l2_cables =
    List.concat_map
      (fun (tr : Partition.tree_alloc) ->
        List.concat_map
          (fun (i, _) ->
            let l2 = Topology.l2_of_coords topo ~pod:tr.pod ~index:i in
            List.map
              (fun j -> Topology.l2_spine_cable topo ~l2 ~spine_index:j)
              (Array.to_list (Option.get (Partition.spine_indices tr i))))
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
    (Partition.nodes topo p);
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
  Partition.leaf_of_arrays topo
    ~leaf:(Topology.leaf_of_coords topo ~pod ~leaf:idx)
    ~nodes:
      (Array.map
         (fun slot -> Topology.node_of_coords topo ~pod ~leaf:idx ~slot)
         slots)
    ~l2_indices:l2

let full_leaf ~pod idx =
  leaf_at ~pod ~idx ~slots:[| 0; 1; 2; 3 |] ~l2:[| 0; 1; 2; 3 |]

let tree ~pod ~full ?rem ~spines () =
  {
    Partition.pod;
    full_leaves = Array.map (full_leaf ~pod) full;
    rem_leaf = rem;
    spine_sets = Array.init 4 (fun i -> (i, Mask.of_list (Array.to_list (spines i))));
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

let raises what ~needle f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names %s in %S" what needle msg)
        true (contains ~needle msg)

(* Leaves or spine sets out of order, and masks or ids outside the
   topology, are rejected, naming the leaf (or the L2 switch, for a
   spine set); [Partition.nodes] too when the leaves are at fault. *)
let test_to_alloc_rejects_unordered () =
  let rejects ?(nodes_too = false) what ~needle p =
    raises (what ^ ": to_alloc") ~needle (fun () ->
        Partition.to_alloc topo p ~bw:1.0);
    if nodes_too then
      raises (what ^ ": nodes") ~needle (fun () -> Partition.nodes topo p)
  in
  let one_leaf la =
    partition
      [| { Partition.pod = 1; full_leaves = [| la |]; rem_leaf = None;
           spine_sets = [||] } |]
  in
  let leaf5 = Topology.leaf_of_coords topo ~pod:1 ~leaf:1 in
  rejects ~nodes_too:true "slot outside the leaf" ~needle:"leaf 5"
    (one_leaf { Partition.leaf = leaf5; slots = 0b10001; l2 = 0b11 });
  rejects "L2 index out of range" ~needle:"leaf 5"
    (one_leaf { Partition.leaf = leaf5; slots = 0b110; l2 = 0b10001 });
  rejects ~nodes_too:true "leaf outside the topology" ~needle:"leaf 32"
    (partition
       [| { Partition.pod = 8;
            full_leaves = [| { Partition.leaf = 32; slots = 1; l2 = 1 } |];
            rem_leaf = None; spine_sets = [||] } |]);
  rejects ~nodes_too:true "full leaves out of order" ~needle:"leaf 5"
    (partition [| tree ~pod:1 ~full:[| 2; 1 |] ~spines:(fun _ -> [||]) () |]);
  rejects ~nodes_too:true "full trees out of order" ~needle:"leaf 4"
    (partition
       [| tree ~pod:2 ~full:[| 0 |] ~spines:(fun _ -> [||]) ();
          tree ~pod:1 ~full:[| 0 |] ~spines:(fun _ -> [||]) () |]);
  let pod2 spine_sets =
    { (tree ~pod:2 ~full:[| 0 |] ~spines:(fun _ -> [| 0 |]) ()) with spine_sets }
  in
  rejects "spine sets out of order" ~needle:"L2 switch 9"
    (partition
       [| tree ~pod:1 ~full:[| 0 |] ~spines:(fun _ -> [| 0 |]) ();
          pod2 [| (0, 1); (2, 1); (1, 1); (3, 1) |] |]);
  rejects "spine index out of range" ~needle:"L2 switch 9"
    (partition [| pod2 [| (0, 1); (1, 0b10010); (2, 1); (3, 1) |] |]);
  rejects "L2 index out of range" ~needle:"pod 2"
    (partition [| pod2 [| (0, 1); (4, 1) |] |])

(* [leaf_of_arrays] rejects what a mask cannot hold, naming the leaf:
   a repeated id, a node off the leaf, an index outside the topology. *)
let test_leaf_of_arrays_rejects () =
  let leaf = Topology.leaf_of_coords topo ~pod:1 ~leaf:1 in
  let first = Topology.leaf_first_node topo leaf in
  let build ~nodes ~l2 () =
    Partition.leaf_of_arrays topo ~leaf ~nodes ~l2_indices:l2
  in
  raises "repeated node" ~needle:"leaf 5: node 21 repeats"
    (build ~nodes:[| first + 1; first + 1 |] ~l2:[| 0; 1 |]);
  raises "repeated L2 index" ~needle:"leaf 5: L2 index 1 repeats"
    (build ~nodes:[| first; first + 1 |] ~l2:[| 1; 1 |]);
  raises "node of another leaf" ~needle:"leaf 5: node 24 is not on this leaf"
    (build ~nodes:[| first; first + 4 |] ~l2:[| 0; 1 |]);
  raises "node below the leaf" ~needle:"leaf 5: node 19 is not on this leaf"
    (build ~nodes:[| first - 1 |] ~l2:[| 0 |]);
  raises "L2 index out of range" ~needle:"leaf 5: L2 index 4 is outside"
    (build ~nodes:[| first |] ~l2:[| 4 |]);
  raises "negative L2 index" ~needle:"leaf 5: L2 index -1 is outside"
    (build ~nodes:[| first |] ~l2:[| -1 |]);
  raises "leaf outside the topology" ~needle:"leaf 32: not a leaf"
    (fun () ->
      Partition.leaf_of_arrays topo ~leaf:32 ~nodes:[||] ~l2_indices:[||]);
  let la = build ~nodes:[| first + 3; first |] ~l2:[| 2; 0 |] () in
  Alcotest.(check (array int)) "nodes, ascending" [| first; first + 3 |]
    (Partition.leaf_nodes topo la);
  Alcotest.(check (array int)) "L2 indices, ascending" [| 0; 2 |]
    (Partition.leaf_l2_indices la)

(* Random partitions at radix 8, 12 and 48, built through
   [leaf_of_arrays] from shuffled id arrays: up to three full trees and
   a remainder tree in distinct pods, the remainder tree at a random rank
   among them, each tree's full leaves and remainder leaf likewise, and
   random node, uplink and spine sets.  The flattening must match the
   sort-based reference, whatever the legality of the partition. *)
let random_partition ~radix ~seed =
  let topo = Topology.of_radix radix in
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  let prng = Sim.Prng.create ~seed in
  let distinct n k =
    let a = Sim.Prng.permutation prng n in
    let s = Array.sub a 0 k in
    Array.sort compare s;
    s
  in
  let random_mask width =
    let m = ref 0 in
    while !m = 0 do
      m := Sim.Prng.int prng ~bound:(1 lsl width)
    done;
    if Sim.Prng.int prng ~bound:3 = 0 then Mask.full width else !m
  in
  let shuffled a =
    let a = Array.copy a in
    Sim.Prng.shuffle prng a;
    a
  in
  let leaf ~pod idx =
    let leaf = Topology.leaf_of_coords topo ~pod ~leaf:idx in
    let first = Topology.leaf_first_node topo leaf in
    let slots = Mask.to_array (random_mask m1) in
    Partition.leaf_of_arrays topo ~leaf
      ~nodes:(shuffled (Array.map (fun s -> first + s) slots))
      ~l2_indices:(shuffled (Mask.to_array (random_mask m1)))
  in
  (* [n] items at sorted distinct ranks of [0, bound), plus maybe one
     more at a random rank among them: the full ones and the
     remainder. *)
  let split ~bound ~n ~rem =
    let n = min n (bound - if rem then 1 else 0) in
    let ids = distinct bound (n + if rem then 1 else 0) in
    if rem then begin
      let r = Sim.Prng.int prng ~bound:(n + 1) in
      ( Array.of_list (List.filteri (fun i _ -> i <> r) (Array.to_list ids)),
        Some ids.(r) )
    end
    else (ids, None)
  in
  let tree pod =
    let full, rem =
      split ~bound:(Topology.m2 topo)
        ~n:(1 + Sim.Prng.int prng ~bound:3)
        ~rem:(Sim.Prng.bool prng)
    in
    let spine_sets =
      if Sim.Prng.bool prng then [||]
      else
        Array.map
          (fun i -> (i, random_mask m2))
          (distinct m1 (1 + Sim.Prng.int prng ~bound:m1))
    in
    {
      Partition.pod;
      full_leaves = Array.map (leaf ~pod) full;
      rem_leaf = Option.map (leaf ~pod) rem;
      spine_sets;
    }
  in
  let full, rem =
    split ~bound:(Topology.m3 topo)
      ~n:(Sim.Prng.int prng ~bound:4)
      ~rem:(Sim.Prng.bool prng)
  in
  let p =
    {
      Partition.job = seed;
      size = 0;
      full_trees = Array.map tree full;
      rem_tree = Option.map tree rem;
    }
  in
  (topo, { p with size = Partition.node_count p })

let prop_to_alloc_matches_reference =
  QCheck2.Test.make ~name:"to_alloc of random partitions = reference"
    ~count:600
    QCheck2.Gen.(pair (oneofl [ 8; 12; 48 ]) int)
    (fun (radix, seed) ->
      let topo, p = random_partition ~radix ~seed in
      let what = Printf.sprintf "radix %d seed %d" radix seed in
      ignore (check_matches_reference what topo p ~bw:0.5);
      true)

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
    Alcotest.test_case "leaf_of_arrays rejects bad ids" `Quick
      test_leaf_of_arrays_rejects;
    QCheck_alcotest.to_alcotest prop_to_alloc_matches_reference;
  ]
