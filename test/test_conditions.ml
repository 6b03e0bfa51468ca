(* Tests for the formal-conditions checker: hand-built legal and illegal
   partitions, mirroring the violations of the paper's Figure 1. *)

open Fattree
open Jigsaw_core

let topo = Topology.of_radix 8 (* m1 = m2 = 4, m3 = 8 *)

let leaf_alloc ~pod ~leaf ~slots ~l2 =
  let gleaf = Topology.leaf_of_coords topo ~pod ~leaf in
  let first = Topology.leaf_first_node topo gleaf in
  Partition.leaf_of_arrays topo ~leaf:gleaf
    ~nodes:(Array.map (fun s -> first + s) (Array.of_list slots))
    ~l2_indices:(Array.of_list l2)

(* A spine set: L2 index [i] uplinks to spine indices [spines]. *)
let sp i spines = (i, Mask.of_list spines)

(* A legal two-level partition: 2 full leaves of 2 nodes + remainder leaf
   of 1 node, S = {0,1}, Sr = {0}. *)
let legal_two_level () =
  {
    Partition.job = 1;
    size = 5;
    full_trees =
      [|
        {
          Partition.pod = 0;
          full_leaves =
            [|
              leaf_alloc ~pod:0 ~leaf:0 ~slots:[ 0; 1 ] ~l2:[ 0; 1 ];
              leaf_alloc ~pod:0 ~leaf:1 ~slots:[ 0; 1 ] ~l2:[ 0; 1 ];
            |];
          rem_leaf = Some (leaf_alloc ~pod:0 ~leaf:2 ~slots:[ 0 ] ~l2:[ 0 ]);
          spine_sets = [||];
        };
      |];
    rem_tree = None;
  }

(* A legal three-level partition: 2 full trees of 1 full leaf (4 nodes),
   remainder tree with a remainder leaf of 2 nodes.  S = {0,1,2,3},
   Sr = {0,1}; spine sets sized to downlinks. *)
let legal_three_level () =
  let full_tree pod =
    {
      Partition.pod;
      full_leaves = [| leaf_alloc ~pod ~leaf:0 ~slots:[ 0; 1; 2; 3 ] ~l2:[ 0; 1; 2; 3 ] |];
      rem_leaf = None;
      spine_sets = [| sp 0 [ 0 ]; sp 1 [ 0 ]; sp 2 [ 0 ]; sp 3 [ 0 ] |];
    }
  in
  {
    Partition.job = 2;
    size = 10;
    full_trees = [| full_tree 0; full_tree 1 |];
    rem_tree =
      Some
        {
          Partition.pod = 2;
          full_leaves = [||];
          rem_leaf = Some (leaf_alloc ~pod:2 ~leaf:0 ~slots:[ 0; 1 ] ~l2:[ 0; 1 ]);
          spine_sets = [| sp 0 [ 0 ]; sp 1 [ 0 ] |];
        };
  }

let check_ok name p =
  match Conditions.check topo p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s rejected: %s" name m

let check_rejected name p =
  match Conditions.check topo p with
  | Ok () -> Alcotest.failf "%s wrongly accepted" name
  | Error _ -> ()

let test_legal_two_level () = check_ok "legal 2L" (legal_two_level ())
let test_legal_three_level () = check_ok "legal 3L" (legal_three_level ())

let test_unbalanced_links_rejected () =
  (* Figure 1 (left): more nodes than uplinks tapers the tree. *)
  let p = legal_two_level () in
  let tree = p.full_trees.(0) in
  let bad = { tree.full_leaves.(0) with l2 = 0b1 } in
  let p = { p with full_trees = [| { tree with full_leaves = [| bad; tree.full_leaves.(1) |] } |] } in
  check_rejected "unbalanced links" p

let test_uneven_leaves_rejected () =
  (* Figure 1 (center): arbitrary node counts per leaf. *)
  let p = legal_two_level () in
  let tree = p.full_trees.(0) in
  let bad = leaf_alloc ~pod:0 ~leaf:0 ~slots:[ 0; 1; 2 ] ~l2:[ 0; 1; 2 ] in
  let p =
    { p with
      size = 6;
      full_trees = [| { tree with full_leaves = [| bad; tree.full_leaves.(1) |] } |] }
  in
  check_rejected "uneven full leaves" p

let test_mismatched_l2_sets_rejected () =
  (* Figure 1 (right): balanced but inconsistent uplink choices. *)
  let p = legal_two_level () in
  let tree = p.full_trees.(0) in
  let bad = leaf_alloc ~pod:0 ~leaf:1 ~slots:[ 0; 1 ] ~l2:[ 2; 3 ] in
  let p = { p with full_trees = [| { tree with full_leaves = [| tree.full_leaves.(0); bad |] } |] } in
  check_rejected "mismatched L2 sets (condition 4)" p

let test_rem_leaf_not_subset_rejected () =
  let p = legal_two_level () in
  let tree = p.full_trees.(0) in
  let bad_rem = leaf_alloc ~pod:0 ~leaf:2 ~slots:[ 0 ] ~l2:[ 3 ] in
  let p = { p with full_trees = [| { tree with rem_leaf = Some bad_rem } |] } in
  check_rejected "Sr not subset of S" p

let test_rem_leaf_too_big_rejected () =
  let p = legal_two_level () in
  let tree = p.full_trees.(0) in
  let bad_rem = leaf_alloc ~pod:0 ~leaf:2 ~slots:[ 0; 1 ] ~l2:[ 0; 1 ] in
  let p = { p with size = 6; full_trees = [| { tree with rem_leaf = Some bad_rem } |] } in
  check_rejected "n_rl = n_l" p

let test_unequal_trees_rejected () =
  (* Condition 1: full trees must carry equal node counts. *)
  let p = legal_three_level () in
  let small_tree =
    {
      Partition.pod = 1;
      full_leaves = [| leaf_alloc ~pod:1 ~leaf:0 ~slots:[ 0; 1 ] ~l2:[ 0; 1 ] |];
      rem_leaf = None;
      spine_sets = [| sp 0 [ 0 ]; sp 1 [ 0 ] |];
    }
  in
  let p = { p with full_trees = [| p.full_trees.(0); small_tree |] } in
  check_rejected "unequal full trees" p

let test_spine_sets_differ_rejected () =
  (* Condition 6: S*_i must match across full trees. *)
  let p = legal_three_level () in
  let tree1 = p.full_trees.(1) in
  let bad =
    { tree1 with
      spine_sets = [| sp 0 [ 1 ]; sp 1 [ 0 ]; sp 2 [ 0 ]; sp 3 [ 0 ] |] }
  in
  let p = { p with full_trees = [| p.full_trees.(0); bad |] } in
  check_rejected "inconsistent spine sets" p

let test_rem_spines_not_subset_rejected () =
  let p = legal_three_level () in
  match p.rem_tree with
  | None -> Alcotest.fail "fixture"
  | Some rt ->
      let bad = { rt with spine_sets = [| sp 0 [ 1 ]; sp 1 [ 0 ] |] } in
      check_rejected "S*r not subset" { p with rem_tree = Some bad }

let test_spine_size_mismatch_rejected () =
  (* |S*_i| must equal l_t (downlinks). *)
  let p = legal_three_level () in
  let tree0 = p.full_trees.(0) in
  let bad =
    { tree0 with
      spine_sets = [| sp 0 [ 0; 1 ]; sp 1 [ 0 ]; sp 2 [ 0 ]; sp 3 [ 0 ] |] }
  in
  check_rejected "oversized spine set" { p with full_trees = [| bad; p.full_trees.(1) |] }

let test_rem_leaf_in_full_tree_rejected () =
  (* Condition 3: the remainder leaf must live in the remainder tree. *)
  let p = legal_three_level () in
  let tree0 = p.full_trees.(0) in
  let bad =
    { tree0 with rem_leaf = Some (leaf_alloc ~pod:0 ~leaf:1 ~slots:[ 0 ] ~l2:[ 0 ]) }
  in
  check_rejected "remainder leaf in full tree"
    { p with size = 11; full_trees = [| bad; p.full_trees.(1) |] }

let test_two_level_with_spines_is_three_level_checked () =
  (* A single-pod partition carrying spine sets is not minimal; the
     checker must treat it as three-level and flag the missing structure
     or inconsistency rather than ignore the cables. *)
  let p = legal_two_level () in
  let tree = p.full_trees.(0) in
  let with_spines = { tree with spine_sets = [| sp 0 [ 0; 1 ] |] } in
  check_rejected "single pod with spine cables" { p with full_trees = [| with_spines |] }

let test_exact_size_enforced () =
  let p = { (legal_two_level ()) with size = 4 } in
  check_rejected "padding rejected by default" p;
  Alcotest.(check bool) "allowed when requested" true
    (Result.is_ok (Conditions.check ~require_exact_size:false topo p))

let test_duplicate_pod_rejected () =
  let p = legal_three_level () in
  let dup = { p.full_trees.(1) with pod = 0 } in
  check_rejected "duplicate pod" { p with full_trees = [| p.full_trees.(0); dup |] }

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Ids that masks cannot hold — a node off its leaf, a repeated node —
   are rejected when a leaf is built from arrays, before any partition
   exists for [check] to see. *)
let test_foreign_node_rejected () =
  let rejects what ~nodes ~l2 =
    match
      Partition.leaf_of_arrays topo ~leaf:0 ~nodes ~l2_indices:l2
    with
    | _ -> Alcotest.failf "%s: leaf_of_arrays accepted it" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names leaf 0" what msg)
          true (contains ~needle:"leaf 0:" msg)
  in
  rejects "node off leaf" ~nodes:[| 0; 999 |] ~l2:[| 0; 1 |];
  rejects "node of the next leaf" ~nodes:[| 0; 4 |] ~l2:[| 0; 1 |];
  rejects "repeated node" ~nodes:[| 1; 1 |] ~l2:[| 0; 1 |];
  rejects "repeated L2 index" ~nodes:[| 0; 1 |] ~l2:[| 1; 1 |];
  (* Order is not an error: a leaf is the set of its ids. *)
  Alcotest.(check bool) "unsorted arrays build the sorted leaf" true
    (Partition.leaf_of_arrays topo ~leaf:0 ~nodes:[| 1; 0 |] ~l2_indices:[| 1; 0 |]
    = Partition.leaf_of_arrays topo ~leaf:0 ~nodes:[| 0; 1 |] ~l2_indices:[| 0; 1 |])

let suite =
  [
    Alcotest.test_case "legal two-level accepted" `Quick test_legal_two_level;
    Alcotest.test_case "legal three-level accepted" `Quick test_legal_three_level;
    Alcotest.test_case "unbalanced links rejected (Fig 1 left)" `Quick test_unbalanced_links_rejected;
    Alcotest.test_case "uneven leaves rejected (Fig 1 center)" `Quick test_uneven_leaves_rejected;
    Alcotest.test_case "mismatched L2 sets rejected (Fig 1 right)" `Quick test_mismatched_l2_sets_rejected;
    Alcotest.test_case "Sr not subset rejected" `Quick test_rem_leaf_not_subset_rejected;
    Alcotest.test_case "oversized remainder leaf rejected" `Quick test_rem_leaf_too_big_rejected;
    Alcotest.test_case "unequal trees rejected (cond 1)" `Quick test_unequal_trees_rejected;
    Alcotest.test_case "inconsistent spine sets rejected (cond 6)" `Quick test_spine_sets_differ_rejected;
    Alcotest.test_case "S*r not subset rejected" `Quick test_rem_spines_not_subset_rejected;
    Alcotest.test_case "spine size mismatch rejected" `Quick test_spine_size_mismatch_rejected;
    Alcotest.test_case "remainder leaf in full tree rejected (cond 3)" `Quick test_rem_leaf_in_full_tree_rejected;
    Alcotest.test_case "single pod must not hold spines" `Quick test_two_level_with_spines_is_three_level_checked;
    Alcotest.test_case "N = Nr enforced" `Quick test_exact_size_enforced;
    Alcotest.test_case "duplicate pod rejected" `Quick test_duplicate_pod_rejected;
    Alcotest.test_case "foreign node rejected" `Quick test_foreign_node_rejected;
  ]
