open Fattree

type leaf_alloc = { leaf : int; nodes : int array; l2_indices : int array }

type tree_alloc = {
  pod : int;
  full_leaves : leaf_alloc array;
  rem_leaf : leaf_alloc option;
  spine_sets : (int * int array) array;
}

type t = {
  job : int;
  size : int;
  full_trees : tree_alloc array;
  rem_tree : tree_alloc option;
}

type kind = Two_level | Three_level
type probe = Found of t | Infeasible | Exhausted

let all_trees p =
  match p.rem_tree with
  | None -> Array.to_list p.full_trees
  | Some r -> Array.to_list p.full_trees @ [ r ]

let kind p =
  let trees = all_trees p in
  let no_spines =
    List.for_all (fun tr -> Array.length tr.spine_sets = 0) trees
  in
  if List.length trees = 1 && no_spines then Two_level else Three_level

let leaves p =
  let of_tree tr =
    match tr.rem_leaf with
    | None -> Array.to_list tr.full_leaves
    | Some r -> Array.to_list tr.full_leaves @ [ r ]
  in
  Array.of_list (List.concat_map of_tree (all_trees p))

(* Flattening in one ordered pass.  Ids are row-major — node =
   leaf*m1 + slot, leaf cable = leaf*m1 + l2 index, L2 cable =
   (pod*m1 + l2 index)*m2 + spine index — so visiting trees by pod,
   each tree's leaves by leaf id, and every inner array in order emits
   each id array already ascending.  Producers list full trees and full
   leaves ascending; the remainder tree (leaf) may belong anywhere among
   them, so it is merged into place. *)
let iter_merged (key : _ -> int) full rem f =
  let rem = ref rem in
  Array.iter
    (fun x ->
      (match !rem with
      | Some r when key r < key x ->
          f r;
          rem := None
      | _ -> ());
      f x)
    full;
  Option.iter f !rem

(* [leaf] on each leaf of a tree in leaf order, then [tree] on the tree;
   trees in pod order. *)
let iter_ordered p ~leaf ~tree =
  iter_merged
    (fun tr -> tr.pod)
    p.full_trees p.rem_tree
    (fun tr ->
      iter_merged (fun la -> la.leaf) tr.full_leaves tr.rem_leaf leaf;
      tree tr)

let node_count p =
  let n = ref 0 in
  iter_ordered p ~tree:ignore ~leaf:(fun la -> n := !n + Array.length la.nodes);
  !n

let pods_used p =
  List.sort_uniq compare (List.map (fun tr -> tr.pod) (all_trees p))

let first_full_leaf p =
  let rec find = function
    | [] -> None
    | tr :: rest ->
        if Array.length tr.full_leaves > 0 then Some tr.full_leaves.(0)
        else find rest
  in
  find (all_trees p)

let n_l p =
  match first_full_leaf p with
  | Some la -> Array.length la.nodes
  | None -> invalid_arg "Partition.n_l: no full leaf"

let l2_index_set p =
  match first_full_leaf p with
  | Some la -> Array.copy la.l2_indices
  | None -> invalid_arg "Partition.l2_index_set: no full leaf"

let unordered fn what id =
  invalid_arg
    (Printf.sprintf "%s: %s %d breaks the ascending id order" fn what id)

(* Writes [base + src.(i)] to [dst] from [k] on, checking each against
   the id written before it; returns the next free slot.  [what] and
   [id] name the leaf or L2 switch [src] belongs to. *)
let fill ~fn ~what ~id dst k base src =
  let prev = ref (if k = 0 then -1 else Array.unsafe_get dst (k - 1)) in
  for i = 0 to Array.length src - 1 do
    let v = base + Array.unsafe_get src i in
    if v <= !prev then unordered fn what id;
    Array.unsafe_set dst (k + i) v;
    prev := v
  done;
  k + Array.length src

(* The index arrays are offsets from one base id: they must lie in
   [0, bound), which for an ascending array its ends decide. *)
let check_range ~fn ~what ~id ~bound src =
  let n = Array.length src in
  if n > 0 && (src.(0) < 0 || src.(n - 1) >= bound) then
    invalid_arg
      (Printf.sprintf "%s: %s %d has an index outside [0, %d)" fn what id
         bound)

let nodes p =
  let all = Array.make (node_count p) 0 in
  let k = ref 0 in
  let fn = "Partition.nodes" in
  iter_ordered p ~tree:ignore ~leaf:(fun la ->
      k := fill ~fn ~what:"leaf" ~id:la.leaf all !k 0 la.nodes);
  all

let to_alloc topo p ~bw =
  let fn = "Partition.to_alloc" in
  let n_nodes = ref 0 and n_leaf = ref 0 and n_l2 = ref 0 in
  iter_ordered p
    ~leaf:(fun la ->
      n_nodes := !n_nodes + Array.length la.nodes;
      n_leaf := !n_leaf + Array.length la.l2_indices)
    ~tree:(fun tr ->
      Array.iter
        (fun (_, spines) -> n_l2 := !n_l2 + Array.length spines)
        tr.spine_sets);
  let nodes = Array.make !n_nodes 0 in
  let leaf_cables = Array.make !n_leaf 0 in
  let l2_cables = Array.make !n_l2 0 in
  let kn = ref 0 and kl = ref 0 and ks = ref 0 in
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  let fill_leaf la =
    let id = la.leaf in
    kn := fill ~fn ~what:"leaf" ~id nodes !kn 0 la.nodes;
    check_range ~fn ~what:"leaf" ~id ~bound:m1 la.l2_indices;
    let base = Topology.leaf_l2_cable topo ~leaf:la.leaf ~l2_index:0 in
    kl := fill ~fn ~what:"leaf" ~id leaf_cables !kl base la.l2_indices
  in
  let fill_spines tr =
    Array.iter
      (fun (i, spines) ->
        let l2 = Topology.l2_of_coords topo ~pod:tr.pod ~index:i in
        check_range ~fn ~what:"L2 switch" ~id:l2 ~bound:m2 spines;
        let base = Topology.l2_spine_cable topo ~l2 ~spine_index:0 in
        ks := fill ~fn ~what:"L2 switch" ~id:l2 l2_cables !ks base spines)
      tr.spine_sets
  in
  iter_ordered p ~leaf:fill_leaf ~tree:fill_spines;
  { Alloc.job = p.job; size = p.size; nodes; leaf_cables; l2_cables; bw }

let pp_int_array ppf a =
  Format.fprintf ppf "[%s]"
    (String.concat "," (Array.to_list (Array.map string_of_int a)))

let pp_leaf ppf la =
  Format.fprintf ppf "leaf %d: nodes %a -> L2 %a" la.leaf pp_int_array la.nodes
    pp_int_array la.l2_indices

let pp_tree ppf tr =
  Format.fprintf ppf "@[<v 2>pod %d:" tr.pod;
  Array.iter (fun la -> Format.fprintf ppf "@,%a" pp_leaf la) tr.full_leaves;
  (match tr.rem_leaf with
  | Some la -> Format.fprintf ppf "@,rem %a" pp_leaf la
  | None -> ());
  Array.iter
    (fun (i, s) -> Format.fprintf ppf "@,L2[%d] -> spines %a" i pp_int_array s)
    tr.spine_sets;
  Format.fprintf ppf "@]"

let pp ppf p =
  Format.fprintf ppf "@[<v 2>partition job=%d size=%d (%s):" p.job p.size
    (match kind p with Two_level -> "two-level" | Three_level -> "three-level");
  Array.iter (fun tr -> Format.fprintf ppf "@,%a" pp_tree tr) p.full_trees;
  (match p.rem_tree with
  | Some tr -> Format.fprintf ppf "@,remainder %a" pp_tree tr
  | None -> ());
  Format.fprintf ppf "@]"
