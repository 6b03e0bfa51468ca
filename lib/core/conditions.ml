open Fattree

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun m -> Error m) fmt

(* Structural sanity of a single leaf allocation.  Its node and uplink
   sets are masks, so they cannot repeat an id or list one out of order;
   a node off its leaf, the one id error a hand-built array could hold,
   is rejected by [Partition.leaf_of_arrays]. *)
let check_leaf topo ~pod (la : Partition.leaf_alloc) =
  let m1 = Topology.m1 topo in
  if la.leaf < 0 || la.leaf >= Topology.num_leaves topo then
    fail "leaf id %d out of range" la.leaf
  else if Topology.leaf_pod topo la.leaf <> pod then
    fail "leaf %d is not in pod %d" la.leaf pod
  else if la.slots = 0 then fail "leaf %d allocates no nodes" la.leaf
  else if la.slots lsr m1 <> 0 then fail "leaf %d: slot out of range" la.leaf
  else if la.l2 lsr m1 <> 0 then fail "leaf %d: l2 index out of range" la.leaf
  else if Mask.popcount la.l2 <> Mask.popcount la.slots then
    fail "leaf %d: unbalanced links (%d nodes, %d uplinks)" la.leaf
      (Mask.popcount la.slots) (Mask.popcount la.l2)
  else Ok ()

let check_tree topo (tr : Partition.tree_alloc) =
  if tr.pod < 0 || tr.pod >= Topology.pods topo then
    fail "pod %d out of range" tr.pod
  else begin
    let rec leaves_ok = function
      | [] -> Ok ()
      | la :: rest ->
          let* () = check_leaf topo ~pod:tr.pod la in
          leaves_ok rest
    in
    let all =
      Array.to_list tr.full_leaves
      @ match tr.rem_leaf with None -> [] | Some l -> [ l ]
    in
    let* () = leaves_ok all in
    let ids = List.map (fun (la : Partition.leaf_alloc) -> la.leaf) all in
    if List.length (List.sort_uniq compare ids) <> List.length ids then
      fail "pod %d: duplicate leaf" tr.pod
    else Ok ()
  end

(* Conditions 1-4 within one tree: full leaves share node count and the
   same L2 set; the remainder leaf is smaller and uses a subset. *)
let check_tree_shape (tr : Partition.tree_alloc) ~n_l ~s =
  match
    Array.find_map
      (fun (la : Partition.leaf_alloc) ->
        let n = Mask.popcount la.slots in
        if n <> n_l then
          Some
            (Printf.sprintf "condition 2: leaf %d has %d nodes, expected %d"
               la.leaf n n_l)
        else if la.l2 <> s then
          Some (Printf.sprintf "condition 4: leaf %d L2 set differs from S" la.leaf)
        else None)
      tr.full_leaves
  with
  | Some m -> Error m
  | None -> (
      match tr.rem_leaf with
      | None -> Ok ()
      | Some la ->
          if Mask.popcount la.slots >= n_l then
            fail "condition 2: remainder leaf %d has >= n_l nodes" la.leaf
          else if not (Mask.subset la.l2 ~of_:s) then
            fail "condition 4: remainder leaf %d L2 set not a subset of S"
              la.leaf
          else Ok ())

(* Condition 6 for one tree: every allocated L2 switch i has a spine set
   sized to its downlink count. *)
let check_tree_spines topo (tr : Partition.tree_alloc) ~s =
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  let downlinks i =
    let from_rem =
      match tr.rem_leaf with Some la when Mask.mem la.l2 i -> 1 | _ -> 0
    in
    Array.length tr.full_leaves + from_rem
  in
  (* Spine sets must be declared, once each, for exactly the L2 indices
     of S with nonzero downlinks. *)
  let used = List.filter (fun i -> downlinks i > 0) (Mask.to_list s) in
  let declared = List.sort compare (Array.to_list (Array.map fst tr.spine_sets)) in
  if declared <> used then
    fail "condition 6: pod %d declares spine sets for wrong L2 indices" tr.pod
  else
    match
      Array.find_map
        (fun (i, spines) ->
          if i < 0 || i >= m1 || spines lsr m2 <> 0 then
            Some (Printf.sprintf "pod %d L2[%d]: spine index out of range" tr.pod i)
          else if Mask.popcount spines <> downlinks i then
            Some
              (Printf.sprintf
                 "condition 6: pod %d L2[%d] has %d uplinks but %d downlinks"
                 tr.pod i (Mask.popcount spines) (downlinks i))
          else None)
        tr.spine_sets
    with
    | Some m -> Error m
    | None -> Ok ()

let find_spine_set (tr : Partition.tree_alloc) i =
  Array.fold_left
    (fun found (j, m) -> if i = j then Some m else found)
    None tr.spine_sets

let check ?(require_exact_size = true) topo (p : Partition.t) =
  let trees =
    Array.to_list p.full_trees
    @ match p.rem_tree with None -> [] | Some tr -> [ tr ]
  in
  if trees = [] then fail "empty partition"
  else begin
    let rec struct_ok = function
      | [] -> Ok ()
      | tr :: rest ->
          let* () = check_tree topo tr in
          struct_ok rest
    in
    let* () = struct_ok trees in
    let pods = List.map (fun (tr : Partition.tree_alloc) -> tr.pod) trees in
    if List.length (List.sort_uniq compare pods) <> List.length pods then
      fail "duplicate pod"
    else begin
      (* Condition 3 placement of the remainder leaf: only the remainder
         tree (or the single tree of a two-level partition) may have one. *)
      let* () =
        let offending =
          Array.exists
            (fun (tr : Partition.tree_alloc) -> tr.rem_leaf <> None)
            p.full_trees
        in
        if offending && (Array.length p.full_trees > 1 || p.rem_tree <> None)
        then fail "condition 3: remainder leaf outside the remainder tree"
        else Ok ()
      in
      (* Establish n_l and S from the first full leaf anywhere. *)
      let first_leaf =
        let rec go = function
          | [] -> None
          | (tr : Partition.tree_alloc) :: rest ->
              if Array.length tr.full_leaves > 0 then Some tr.full_leaves.(0)
              else go rest
        in
        go trees
      in
      let* n_l, s =
        match first_leaf with
        | Some la -> Ok (Mask.popcount la.slots, la.l2)
        | None -> (
            (* A partition consisting of only a remainder leaf: legal only
               as a single-leaf two-level allocation, in which case that
               leaf is the "full" leaf; reject the degenerate shape. *)
            match trees with
            | [ { rem_leaf = Some _; _ } ] ->
                fail "degenerate: lone remainder leaf (should be a full leaf)"
            | _ -> fail "no full leaf in partition")
      in
      (* Conditions 2 and 4-5 per tree. *)
      let rec shapes_ok = function
        | [] -> Ok ()
        | tr :: rest ->
            let* () = check_tree_shape tr ~n_l ~s in
            shapes_ok rest
      in
      let* () = shapes_ok trees in
      (* Condition 1: full trees carry equal node counts; remainder fewer. *)
      let tree_nodes (tr : Partition.tree_alloc) =
        Array.fold_left
          (fun acc (la : Partition.leaf_alloc) -> acc + Mask.popcount la.slots)
          (match tr.rem_leaf with
          | None -> 0
          | Some la -> Mask.popcount la.slots)
          tr.full_leaves
      in
      let* n_t =
        match Array.to_list p.full_trees with
        | [] -> fail "no full tree"
        | tr :: rest ->
            let n = tree_nodes tr in
            if List.for_all (fun tr' -> tree_nodes tr' = n) rest then Ok n
            else fail "condition 1: full trees carry unequal node counts"
      in
      let* () =
        match p.rem_tree with
        | None -> Ok ()
        | Some tr ->
            if tree_nodes tr >= n_t then
              fail "condition 1: remainder tree not smaller than full trees"
            else Ok ()
      in
      (* Full trees must also have equal leaf counts (implied by equal node
         counts and uniform n_l, but check the representation anyway). *)
      let* l_t =
        match Array.to_list p.full_trees with
        | [] -> fail "no full tree"
        | tr :: rest ->
            let l = Array.length tr.full_leaves in
            if
              List.for_all
                (fun (tr' : Partition.tree_alloc) ->
                  Array.length tr'.full_leaves = l)
                rest
            then Ok l
            else fail "condition 1: full trees have unequal leaf counts"
      in
      (* Full trees never contain the remainder leaf (checked above), so a
         full tree's node count is l_t * n_l by construction. *)
      let is_two_level = Partition.kind p = Two_level in
      let* () =
        if is_two_level then
          (* Minimality: single-pod partitions allocate no spine cables
             (enforced by [kind]); nothing further to check. *)
          Ok ()
        else begin
          (* Condition 6: consistent spine sets. *)
          let rec spine_shape_ok = function
            | [] -> Ok ()
            | tr :: rest ->
                let* () = check_tree_spines topo tr ~s in
                spine_shape_ok rest
          in
          let* () = spine_shape_ok trees in
          (* Each full tree's S*_i must match across trees and have size
             l_t; the remainder tree's must be a subset. *)
          let* () =
            match Array.to_list p.full_trees with
            | [] -> fail "no full tree"
            | tr0 :: rest ->
                let rec per_index = function
                  | [] -> Ok ()
                  | i :: more -> (
                      match find_spine_set tr0 i with
                      | None -> fail "condition 6: missing spine set for L2[%d]" i
                      | Some s0 ->
                          if Mask.popcount s0 <> l_t then
                            fail
                              "condition 6: |S*_%d| = %d but l_t = %d" i
                              (Mask.popcount s0) l_t
                          else begin
                            let mismatch =
                              List.exists
                                (fun tr' ->
                                  match find_spine_set tr' i with
                                  | None -> true
                                  | Some s' -> s0 <> s')
                                rest
                            in
                            if mismatch then
                              fail
                                "condition 6: S*_%d differs across full trees" i
                            else begin
                              let rem_ok =
                                match p.rem_tree with
                                | None -> true
                                | Some tr -> (
                                    match find_spine_set tr i with
                                    | None -> true (* unused in remainder *)
                                    | Some sr -> Mask.subset sr ~of_:s0)
                              in
                              if rem_ok then per_index more
                              else
                                fail
                                  "condition 6: remainder S*r_%d not a subset"
                                  i
                            end
                          end)
                in
                per_index (Mask.to_list s)
          in
          Ok ()
        end
      in
      (* High utilization: exactly the requested node count. *)
      if require_exact_size && Partition.node_count p <> p.size then
        fail "utilization: allocated %d nodes for a request of %d"
          (Partition.node_count p) p.size
      else Ok ()
    end
  end

let is_legal ?require_exact_size topo p =
  Result.is_ok (check ?require_exact_size topo p)
