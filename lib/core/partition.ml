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

(* Every tree in order (the full trees, then the remainder tree), and
   every leaf in tree order (each tree's full leaves, then its remainder
   leaf): the order [leaves] lists them in. *)
let iter_trees p f =
  Array.iter f p.full_trees;
  Option.iter f p.rem_tree

let iter_leaves p f =
  iter_trees p (fun tr ->
      Array.iter f tr.full_leaves;
      Option.iter f tr.rem_leaf)

let node_count p =
  let n = ref 0 in
  iter_leaves p (fun la -> n := !n + Array.length la.nodes);
  !n

let nodes p =
  let all = Array.make (node_count p) 0 in
  let k = ref 0 in
  iter_leaves p (fun la ->
      Array.blit la.nodes 0 all !k (Array.length la.nodes);
      k := !k + Array.length la.nodes);
  Sim.Intsort.sort all;
  all

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

let to_alloc topo p ~bw =
  let n_leaf = ref 0 and n_l2 = ref 0 in
  iter_leaves p (fun la -> n_leaf := !n_leaf + Array.length la.l2_indices);
  iter_trees p (fun tr ->
      Array.iter
        (fun (_, spines) -> n_l2 := !n_l2 + Array.length spines)
        tr.spine_sets);
  let leaf_cables = Array.make !n_leaf 0 in
  let l2_cables = Array.make !n_l2 0 in
  let k = ref 0 in
  iter_leaves p (fun la ->
      Array.iter
        (fun i ->
          leaf_cables.(!k) <-
            Topology.leaf_l2_cable topo ~leaf:la.leaf ~l2_index:i;
          incr k)
        la.l2_indices);
  let k = ref 0 in
  iter_trees p (fun tr ->
      Array.iter
        (fun (i, spines) ->
          let l2 = Topology.l2_of_coords topo ~pod:tr.pod ~index:i in
          Array.iter
            (fun j ->
              l2_cables.(!k) <-
                Topology.l2_spine_cable topo ~l2 ~spine_index:j;
              incr k)
            spines)
        tr.spine_sets);
  (* Monomorphic sort: these arrays reach a few hundred entries on
     machine-scale partitions and a closure-calling sort dominates the
     whole materialization otherwise. *)
  Sim.Intsort.sort leaf_cables;
  Sim.Intsort.sort l2_cables;
  {
    Alloc.job = p.job;
    size = p.size;
    nodes = nodes p;
    leaf_cables;
    l2_cables;
    bw;
  }

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
