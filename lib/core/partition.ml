open Fattree

type leaf_alloc = { leaf : int; slots : int; l2 : int }

type tree_alloc = {
  pod : int;
  full_leaves : leaf_alloc array;
  rem_leaf : leaf_alloc option;
  spine_sets : (int * int) array;
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

(* Flattening in one ordered pass.  Ids are row-major — node =
   leaf*m1 + slot, leaf cable = leaf*m1 + l2 index, L2 cable =
   (pod*m1 + l2 index)*m2 + spine index — so visiting trees by pod,
   each tree's leaves by leaf id, and expanding every mask from its low
   bit emits each id array already ascending.  Producers list full
   trees and full leaves ascending; the remainder tree (leaf) may belong
   anywhere among them, so it is merged into place. *)
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
  iter_ordered p ~tree:ignore ~leaf:(fun la -> n := !n + Mask.popcount la.slots);
  !n

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
  | Some la -> Mask.popcount la.slots
  | None -> invalid_arg "Partition.n_l: no full leaf"

let l2_index_set p =
  match first_full_leaf p with
  | Some la -> Mask.to_array la.l2
  | None -> invalid_arg "Partition.l2_index_set: no full leaf"

let unordered fn what id =
  invalid_arg
    (Printf.sprintf "%s: %s %d breaks the ascending id order" fn what id)

let outside fn what id bound =
  invalid_arg
    (Printf.sprintf "%s: %s %d has an index outside [0, %d)" fn what id bound)

let beyond fn what id =
  invalid_arg (Printf.sprintf "%s: %s %d lies outside the topology" fn what id)

(* The checking pass: one compare per leaf against the leaf before it
   (masks within [m1] bits then order every node and leaf cable), one
   per spine set against the L2 switch before it, and the last leaf and
   switch against the topology's bounds.  Returns the three id counts,
   by popcount; [spines:false] skips the spine sets. *)
let check_and_count fn topo p ~spines =
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  let n_nodes = ref 0 and n_leaf = ref 0 and n_l2 = ref 0 in
  let prev_leaf = ref (-1) and prev_l2 = ref (-1) in
  let leaf la =
    if la.leaf <= !prev_leaf then unordered fn "leaf" la.leaf;
    if la.slots lsr m1 <> 0 || la.l2 lsr m1 <> 0 then
      outside fn "leaf" la.leaf m1;
    prev_leaf := la.leaf;
    n_nodes := !n_nodes + Mask.popcount la.slots;
    n_leaf := !n_leaf + Mask.popcount la.l2
  in
  let tree tr =
    Array.iter
      (fun (i, s) ->
        if i < 0 || i >= m1 then
          invalid_arg
            (Printf.sprintf "%s: pod %d has an L2 index %d outside [0, %d)" fn
               tr.pod i m1);
        let l2 = (tr.pod * m1) + i in
        if l2 <= !prev_l2 then unordered fn "L2 switch" l2;
        if s lsr m2 <> 0 then outside fn "L2 switch" l2 m2;
        prev_l2 := l2;
        n_l2 := !n_l2 + Mask.popcount s)
      tr.spine_sets
  in
  iter_ordered p ~leaf ~tree:(if spines then tree else ignore);
  if !prev_leaf >= Topology.num_leaves topo then beyond fn "leaf" !prev_leaf;
  if !prev_l2 >= Topology.num_l2 topo then beyond fn "L2 switch" !prev_l2;
  (!n_nodes, !n_leaf, !n_l2)

(* Writes [base + b] to [dst] from [k] on for each set bit [b] of
   [mask], ascending, and returns the next free slot; a mask of all
   [width] bits is a plain count.  The checking pass sized [dst] by
   popcount and kept every mask within [width] bits. *)
let expand dst k base mask ~width =
  if mask = Mask.full width then begin
    for b = 0 to width - 1 do
      Array.unsafe_set dst (k + b) (base + b)
    done;
    k + width
  end
  else begin
    let m = ref mask and v = ref base and k = ref k in
    while !m <> 0 do
      if !m land 1 <> 0 then begin
        Array.unsafe_set dst !k !v;
        incr k
      end;
      m := !m lsr 1;
      incr v
    done;
    !k
  end

let nodes topo p =
  let n, _, _ = check_and_count "Partition.nodes" topo p ~spines:false in
  let all = Array.make n 0 in
  let m1 = Topology.m1 topo in
  let k = ref 0 in
  iter_ordered p ~tree:ignore ~leaf:(fun la ->
      k := expand all !k (la.leaf * m1) la.slots ~width:m1);
  all

let to_alloc topo p ~bw =
  let n_nodes, n_leaf, n_l2 =
    check_and_count "Partition.to_alloc" topo p ~spines:true
  in
  let nodes = Array.make n_nodes 0 in
  let leaf_cables = Array.make n_leaf 0 in
  let l2_cables = Array.make n_l2 0 in
  let kn = ref 0 and kl = ref 0 and ks = ref 0 in
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  (* A leaf's first node and its first uplink cable share one id. *)
  let fill_leaf la =
    let base = la.leaf * m1 in
    kn := expand nodes !kn base la.slots ~width:m1;
    kl := expand leaf_cables !kl base la.l2 ~width:m1
  in
  let fill_spines tr =
    Array.iter
      (fun (i, s) ->
        ks := expand l2_cables !ks (((tr.pod * m1) + i) * m2) s ~width:m2)
      tr.spine_sets
  in
  iter_ordered p ~leaf:fill_leaf ~tree:fill_spines;
  { Alloc.job = p.job; size = p.size; nodes; leaf_cables; l2_cables; bw }

let leaf_nodes topo la =
  let m1 = Topology.m1 topo in
  Array.map (fun s -> (la.leaf * m1) + s) (Mask.to_array la.slots)

let leaf_l2_indices la = Mask.to_array la.l2

let spine_indices tr i =
  Array.fold_left
    (fun found (j, s) -> if i = j then Some (Mask.to_array s) else found)
    None tr.spine_sets

let leaf_of_arrays topo ~leaf ~nodes ~l2_indices =
  let bad fmt =
    Printf.ksprintf
      (fun m ->
        invalid_arg (Printf.sprintf "Partition.leaf_of_arrays: leaf %d: %s" leaf m))
      fmt
  in
  if leaf < 0 || leaf >= Topology.num_leaves topo then
    bad "not a leaf of the topology";
  let m1 = Topology.m1 topo in
  let first = leaf * m1 in
  let to_mask what ~base ~outside ids =
    Array.fold_left
      (fun mask id ->
        let b = id - base in
        if b < 0 || b >= m1 then outside id;
        if Mask.mem mask b then bad "%s %d repeats" what id;
        mask lor (1 lsl b))
      0 ids
  in
  {
    leaf;
    slots =
      to_mask "node" ~base:first nodes ~outside:(fun id ->
          bad "node %d is not on this leaf (nodes %d to %d)" id first
            (first + m1 - 1));
    l2 =
      to_mask "L2 index" ~base:0 l2_indices ~outside:(fun i ->
          bad "L2 index %d is outside [0, %d)" i m1);
  }

let pp_int_array ppf a =
  Format.fprintf ppf "[%s]"
    (String.concat "," (Array.to_list (Array.map string_of_int a)))

let pp_leaf ppf la =
  Format.fprintf ppf "leaf %d: slots %a -> L2 %a" la.leaf pp_int_array
    (Mask.to_array la.slots) pp_int_array (Mask.to_array la.l2)

let pp_tree ppf tr =
  Format.fprintf ppf "@[<v 2>pod %d:" tr.pod;
  Array.iter (fun la -> Format.fprintf ppf "@,%a" pp_leaf la) tr.full_leaves;
  (match tr.rem_leaf with
  | Some la -> Format.fprintf ppf "@,rem %a" pp_leaf la
  | None -> ());
  Array.iter
    (fun (i, s) ->
      Format.fprintf ppf "@,L2[%d] -> spines %a" i pp_int_array (Mask.to_array s))
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
