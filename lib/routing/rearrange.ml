open Fattree
open Jigsaw_core

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun m -> Error m) fmt

(* ------------------------------------------------------------------ *)
(* Round-based color assignment (the shared engine of Theorems 4-6).   *)
(*                                                                     *)
(* Input: flows over [n] switches such that every switch has exactly   *)
(* [d] outgoing and [d] incoming flows (virtual padding included by    *)
(* the caller).  Output: a color in [0, d) per flow such that each     *)
(* switch sees every color at most once on each side, and flows whose  *)
(* payload is real and which leave the remainder switch [rem] receive  *)
(* colors below [real_count].                                          *)
(* ------------------------------------------------------------------ *)

type 'a flow = { src_sw : int; dst_sw : int; real : bool; payload : 'a }

let assign_colors ~n ~d ~rem ~real_count (flows : 'a flow array) :
    (int array, string) result =
  let f = Array.length flows in
  if f <> n * d then fail "assign_colors: %d flows but n*d = %d" f (n * d)
  else begin
    (* Stacks of remaining flow ids per (src, dst) pair. *)
    let stacks : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    Array.iteri
      (fun i fl ->
        let key = (fl.src_sw, fl.dst_sw) in
        match Hashtbl.find_opt stacks key with
        | Some r -> r := i :: !r
        | None -> Hashtbl.add stacks key (ref [ i ]))
      flows;
    let colors = Array.make f (-1) in
    let color_used = Array.make d false in
    let next_unused lo hi =
      let rec go c = if c >= hi then None else if color_used.(c) then go (c + 1) else Some c in
      go lo
    in
    let error = ref None in
    for _round = 0 to d - 1 do
      if !error = None then begin
        let g = Matching.create ~left:n ~right:n in
        Hashtbl.iter
          (fun (u, v) r -> if !r <> [] then Matching.add_edge g u v)
          stacks;
        match Matching.perfect_matching g with
        | None -> error := Some "assign_colors: no perfect matching (invariant broken)"
        | Some pairs ->
            (* Pop one concrete flow per matched pair. *)
            let matched =
              List.map
                (fun (u, v) ->
                  let r = Hashtbl.find stacks (u, v) in
                  match !r with
                  | [] -> assert false
                  | i :: rest ->
                      r := rest;
                      i)
                pairs
            in
            let color =
              match rem with
              | Some s -> begin
                  (* The flow leaving the remainder switch decides the
                     color class for the whole round. *)
                  let out_flow =
                    List.find_opt (fun i -> flows.(i).src_sw = s) matched
                  in
                  match out_flow with
                  | None -> next_unused 0 d (* rem switch absent: free choice *)
                  | Some i ->
                      if flows.(i).real then next_unused 0 real_count
                      else next_unused real_count d
                end
              | None -> next_unused 0 d
            in
            (match color with
            | None -> error := Some "assign_colors: color classes exhausted (invariant broken)"
            | Some c ->
                color_used.(c) <- true;
                List.iter (fun i -> colors.(i) <- c) matched)
      end
    done;
    match !error with Some m -> Error m | None -> Ok colors
  end

(* ------------------------------------------------------------------ *)
(* Abstract (augmented) view of a partition.                           *)
(* ------------------------------------------------------------------ *)

(* A physical or virtual node position in the augmented tree. *)
type anode = {
  tree_a : int; (* abstract tree index *)
  leaf_a : int; (* abstract leaf index, global over all trees *)
  node : int; (* physical node id, or -1 if virtual *)
  pod : int; (* physical pod, or -1 if the leaf is virtual *)
  leaf : int; (* physical leaf id, or -1 *)
}

type aview = {
  n_l : int;
  lpt : int; (* abstract leaves per tree: l_t, or l_t+1 for a two-level
                partition whose remainder leaf is an extra leaf *)
  num_trees : int;
  anodes : anode array; (* length num_trees * l_t * n_l *)
  num_leaves_a : int;
  rem_leaf_a : int option; (* abstract leaf index of the remainder leaf *)
  rem_tree_a : int option;
  n_rl : int;
  s_ord : int array; (* L2 indices, remainder subset first *)
  spine_ord : int array array; (* per position c of s_ord: spine indices *)
  spine_real : int array; (* per position c: real prefix length *)
  node_pos : (int, int) Hashtbl.t; (* physical node -> index in anodes *)
}

let sorted_diff a b =
  (* elements of a not in b, preserving order *)
  Array.of_list
    (List.filter (fun x -> not (Array.exists (fun y -> y = x) b)) (Array.to_list a))

let build_view topo (p : Partition.t) : (aview, string) result =
  let* () = Conditions.check ~require_exact_size:false topo p in
  let trees =
    Array.of_list
      (Array.to_list p.full_trees
      @ match p.rem_tree with None -> [] | Some tr -> [ tr ])
  in
  let two_level = Partition.kind p = Two_level in
  let n_l = Partition.n_l p in
  let s = Partition.l2_index_set p in
  (* In a two-level partition the single tree plays the remainder-tree
     role for leaf-level augmentation. *)
  let rem_tree_phys : Partition.tree_alloc option =
    if two_level then Some trees.(0) else p.rem_tree
  in
  let l_t = Array.length p.full_trees.(0).full_leaves in
  let num_trees = Array.length trees in
  let rem_tree_a =
    match p.rem_tree with None -> None | Some _ -> Some (num_trees - 1)
  in
  (* Remainder leaf (if any) lives in the remainder tree (or the single
     two-level tree). *)
  let rem_leaf_phys =
    match rem_tree_phys with None -> None | Some tr -> tr.rem_leaf
  in
  (* Abstract leaves per tree: in a two-level partition the remainder
     leaf is an extra leaf of the (single) tree; in a three-level
     partition it occupies one of the remainder tree's l_t slots. *)
  let lpt = if two_level && rem_leaf_phys <> None then l_t + 1 else l_t in
  let n_rl =
    match rem_leaf_phys with None -> 0 | Some la -> Mask.popcount la.slots
  in
  let sr =
    match rem_leaf_phys with
    | None -> [||]
    | Some la -> Partition.leaf_l2_indices la
  in
  let s_ord = Array.append sr (sorted_diff s sr) in
  (* Spine orders per center position (three-level only). *)
  let spine_ord, spine_real =
    if two_level then
      (Array.make (Array.length s_ord) [||], Array.make (Array.length s_ord) 0)
    else begin
      let full0 = p.full_trees.(0) in
      let ord = Array.make (Array.length s_ord) [||] in
      let real = Array.make (Array.length s_ord) 0 in
      Array.iteri
        (fun c i ->
          let s_star =
            match Partition.spine_indices full0 i with
            | Some arr -> arr
            | None -> [||]
          in
          let s_star_r =
            match p.rem_tree with
            | None -> [||]
            | Some tr -> (
                match Partition.spine_indices tr i with
                | Some arr -> arr
                | None -> [||])
          in
          ord.(c) <- Array.append s_star_r (sorted_diff s_star s_star_r);
          real.(c) <-
            (match p.rem_tree with
            | None -> Array.length s_star
            | Some _ -> Array.length s_star_r))
        s_ord;
      (ord, real)
    end
  in
  (* Lay out abstract nodes: each tree gets l_t abstract leaves of n_l
     slots; the remainder tree's layout is [full leaves; remainder leaf;
     virtual leaves]. *)
  let anodes = Array.make (num_trees * lpt * n_l) { tree_a = -1; leaf_a = -1; node = -1; pod = -1; leaf = -1 } in
  let rem_leaf_a = ref None in
  Array.iteri
    (fun k tr ->
      let leaf_allocs =
        Array.to_list tr.Partition.full_leaves
        @ (match tr.rem_leaf with None -> [] | Some la -> [ la ])
      in
      List.iteri
        (fun li (la : Partition.leaf_alloc) ->
          if tr.rem_leaf <> None && li = Array.length tr.full_leaves then
            rem_leaf_a := Some ((k * lpt) + li);
          let la_nodes = Partition.leaf_nodes topo la in
          for slot = 0 to n_l - 1 do
            let node =
              if slot < Array.length la_nodes then la_nodes.(slot) else -1
            in
            anodes.(((k * lpt) + li) * n_l + slot) <-
              {
                tree_a = k;
                leaf_a = (k * lpt) + li;
                node;
                pod = tr.pod;
                leaf = la.leaf;
              }
          done)
        leaf_allocs;
      (* Virtual leaves fill the rest of the tree. *)
      for li = List.length leaf_allocs to lpt - 1 do
        for slot = 0 to n_l - 1 do
          anodes.(((k * lpt) + li) * n_l + slot) <-
            { tree_a = k; leaf_a = (k * lpt) + li; node = -1; pod = tr.pod; leaf = -1 }
        done
      done)
    trees;
  let node_pos = Hashtbl.create 64 in
  Array.iteri
    (fun idx an -> if an.node >= 0 then Hashtbl.add node_pos an.node idx)
    anodes;
  Ok
    {
      n_l;
      lpt;
      num_trees;
      anodes;
      num_leaves_a = num_trees * lpt;
      rem_leaf_a = !rem_leaf_a;
      rem_tree_a;
      n_rl;
      s_ord;
      spine_ord;
      spine_real;
      node_pos;
    }

(* ------------------------------------------------------------------ *)
(* The router.                                                         *)
(* ------------------------------------------------------------------ *)

let is_permutation perm =
  let n = Array.length perm in
  let seen = Array.make n false in
  let ok = ref true in
  Array.iter
    (fun v -> if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true)
    perm;
  !ok

(* Flow payload: (src anode index, dst anode index); virtual flows carry
   the padding slot as both ends. *)
let build_flows view nodes perm =
  let real_flows =
    Array.to_list
      (Array.mapi
         (fun k dst_k ->
           let src = nodes.(k) and dst = nodes.(dst_k) in
           let si = Hashtbl.find view.node_pos src in
           let di = Hashtbl.find view.node_pos dst in
           let sa = view.anodes.(si) and da = view.anodes.(di) in
           {
             src_sw = sa.leaf_a;
             dst_sw = da.leaf_a;
             real = true;
             payload = (si, di);
           })
         perm)
  in
  let virtual_flows = ref [] in
  Array.iteri
    (fun idx an ->
      if an.node < 0 then
        virtual_flows :=
          { src_sw = an.leaf_a; dst_sw = an.leaf_a; real = false; payload = (idx, idx) }
          :: !virtual_flows)
    view.anodes;
  Array.of_list (real_flows @ !virtual_flows)

let route_permutation topo (p : Partition.t) ~perm =
  let nodes = Partition.nodes topo p in
  let n = Array.length nodes in
  if Array.length perm <> n then fail "perm length %d <> %d nodes" (Array.length perm) n
  else if not (is_permutation perm) then fail "not a permutation"
  else
    let* view = build_view topo p in
    let flows = build_flows view nodes perm in
    (* Top level: one color (= center network) per flow. *)
    let* centers =
      assign_colors ~n:view.num_leaves_a ~d:view.n_l ~rem:view.rem_leaf_a
        ~real_count:view.n_rl flows
    in
    let two_level = Array.length view.spine_ord.(0) = 0 in
    (* Per center, solve the spine-level subproblem (three-level only). *)
    let spine_color = Array.make (Array.length flows) (-1) in
    let* () =
      if two_level then Ok ()
      else begin
        let rec per_center c =
          if c >= Array.length view.s_ord then Ok ()
          else begin
            let idxs = ref [] in
            Array.iteri
              (fun i col -> if col = c then idxs := i :: !idxs)
              centers;
            let sub =
              Array.of_list
                (List.map
                   (fun i ->
                     let fl = flows.(i) in
                     let sa = view.anodes.(fst fl.payload) in
                     let da = view.anodes.(snd fl.payload) in
                     {
                       src_sw = sa.tree_a;
                       dst_sw = da.tree_a;
                       real = fl.real;
                       payload = i;
                     })
                   !idxs)
            in
            let* cols =
              assign_colors ~n:view.num_trees ~d:view.lpt ~rem:view.rem_tree_a
                ~real_count:view.spine_real.(c) sub
            in
            Array.iteri (fun k fl -> spine_color.(fl.payload) <- cols.(k)) sub;
            per_center (c + 1)
          end
        in
        per_center 0
      end
    in
    (* Emit physical paths for real flows. *)
    let paths = ref [] in
    Array.iteri
      (fun i fl ->
        if fl.real then begin
          let sa = view.anodes.(fst fl.payload) in
          let da = view.anodes.(snd fl.payload) in
          let c = centers.(i) in
          let l2_index = view.s_ord.(c) in
          let up1 =
            {
              Path.tier = Path.Leaf_l2;
              cable = Topology.leaf_l2_cable topo ~leaf:sa.leaf ~l2_index;
              dir = Path.Up;
            }
          in
          let down1 =
            {
              Path.tier = Path.Leaf_l2;
              cable = Topology.leaf_l2_cable topo ~leaf:da.leaf ~l2_index;
              dir = Path.Down;
            }
          in
          let hops =
            if two_level then [ up1; down1 ]
            else begin
              let j = view.spine_ord.(c).(spine_color.(i)) in
              let src_l2 = Topology.l2_of_coords topo ~pod:sa.pod ~index:l2_index in
              let dst_l2 = Topology.l2_of_coords topo ~pod:da.pod ~index:l2_index in
              [
                up1;
                {
                  Path.tier = Path.L2_spine;
                  cable = Topology.l2_spine_cable topo ~l2:src_l2 ~spine_index:j;
                  dir = Path.Up;
                };
                {
                  Path.tier = Path.L2_spine;
                  cable = Topology.l2_spine_cable topo ~l2:dst_l2 ~spine_index:j;
                  dir = Path.Down;
                };
                down1;
              ]
            end
          in
          paths := { Path.src = sa.node; dst = da.node; hops } :: !paths
        end)
      flows;
    Ok (List.rev !paths)

let route_traffic topo (p : Partition.t) ~flows =
  let nodes = Partition.nodes topo p in
  let n = Array.length nodes in
  let index_of = Hashtbl.create 64 in
  Array.iteri (fun i x -> Hashtbl.add index_of x i) nodes;
  let lookup what x =
    match Hashtbl.find_opt index_of x with
    | Some i -> Ok i
    | None -> fail "%s node %d is not in the partition" what x
  in
  (* Build a partial permutation, rejecting duplicate senders/receivers. *)
  let dst_of = Array.make n (-1) in
  let has_dst = Array.make n false in
  let is_dst = Array.make n false in
  let rec fill = function
    | [] -> Ok ()
    | (s, d) :: rest ->
        let* si = lookup "source" s in
        let* di = lookup "destination" d in
        if has_dst.(si) then fail "node %d sends twice" s
        else if is_dst.(di) then fail "node %d receives twice" d
        else begin
          dst_of.(si) <- di;
          has_dst.(si) <- true;
          is_dst.(di) <- true;
          fill rest
        end
  in
  let* () = fill flows in
  (* Complete with a matching of the remaining senders to the remaining
     receivers (identity-biased: self-flows where possible). *)
  let free_dsts = ref [] in
  for i = n - 1 downto 0 do
    if not is_dst.(i) then free_dsts := i :: !free_dsts
  done;
  (* First give every unfilled sender its own slot if free, then hand out
     the rest in order. *)
  for i = 0 to n - 1 do
    if (not has_dst.(i)) && not is_dst.(i) then begin
      dst_of.(i) <- i;
      has_dst.(i) <- true;
      is_dst.(i) <- true;
      free_dsts := List.filter (fun j -> j <> i) !free_dsts
    end
  done;
  for i = 0 to n - 1 do
    if not has_dst.(i) then begin
      match !free_dsts with
      | j :: rest ->
          dst_of.(i) <- j;
          has_dst.(i) <- true;
          is_dst.(j) <- true;
          free_dsts := rest
      | [] -> ()
    end
  done;
  let* paths = route_permutation topo p ~perm:dst_of in
  (* Return only the requested flows. *)
  let module PS = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let wanted = PS.of_list flows in
  Ok (List.filter (fun (pa : Path.t) -> PS.mem (pa.src, pa.dst) wanted) paths)

let route_and_verify topo p ~perm =
  let* paths = route_permutation topo p ~perm in
  let alloc = Partition.to_alloc topo p ~bw:1.0 in
  let* () = Path.uses_only alloc paths in
  let* () = Path.one_flow_per_channel paths in
  Ok paths

let demo_permutation ~n ~shift = Array.init n (fun k -> (k + shift) mod n)
