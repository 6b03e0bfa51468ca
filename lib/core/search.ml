open Fattree

type leaf_info = { leaf : int; free : int; up_mask : int }

let pod_leaf_infos st ~pod ~demand =
  let topo = State.topo st in
  let m2 = Topology.m2 topo in
  Array.init m2 (fun l ->
      let leaf = Topology.leaf_of_coords topo ~pod ~leaf:l in
      {
        leaf;
        free = State.free_nodes_on_leaf st leaf;
        up_mask = State.leaf_up_mask st ~leaf ~demand;
      })

type pod_solution = { leaf_mask : int; cap_mask : int }

let materialize_leaf st ~leaf ~l2 =
  {
    Partition.leaf;
    slots = Mask.take_lowest (State.free_slot_mask st leaf) (Mask.popcount l2);
    l2;
  }

(* [left.(l)] counts the candidate leaves among [l .. m2-1] (so leaf [l]
   is a candidate iff [left.(l) > left.(l+1)]).  A search still needing
   [k] leaves never descends into leaf [l] once [left.(l) < k]: no
   completion exists there, so the bound changes neither the order of
   the search nor what it finds, only how many steps it takes. *)
let candidates_left infos ~n_l =
  let m2 = Array.length infos in
  let left = Array.make (m2 + 1) 0 in
  for l = m2 - 1 downto 0 do
    let info = infos.(l) in
    let c = if info.free >= n_l && Mask.popcount info.up_mask >= n_l then 1 else 0 in
    left.(l) <- left.(l + 1) + c
  done;
  left

(* Backtracking over the pod's leaves in index order, mirroring find_L2 of
   Algorithm 1: each recursive level picks the next full leaf strictly
   after the previous one and narrows the running uplink-capability
   intersection.  At the base case we look for the remainder leaf among
   leaves not already used.  The caller has checked the pod's cached
   counts: it has at least [l_t] candidate leaves. *)
let search_pod st ~pod ~(shape : Shapes.two_level) ~demand =
  let { Shapes.n_l; l_t; n_rl } = shape in
  let infos = pod_leaf_infos st ~pod ~demand in
  let m2 = Array.length infos in
  let left = candidates_left infos ~n_l in
  let find_remainder chosen cap_mask =
    (* A remainder leaf needs n_rl free nodes and n_rl available uplinks
       whose indices can be covered by a choice of S inside cap_mask. *)
    let rec go l =
      if l >= m2 then None
      else begin
        let info = infos.(l) in
        let overlap = info.up_mask land cap_mask in
        if
          (not (Mask.mem chosen l))
          && info.free >= n_rl
          && Mask.popcount overlap >= n_rl
        then Some (l, overlap)
        else go (l + 1)
      end
    in
    go 0
  in
  (* [chosen]: in-pod mask of the full leaves picked so far. *)
  let rec pick start taken chosen cap_mask =
    if taken = l_t then begin
      (* Base case: fix S and, if needed, the remainder leaf. *)
      if n_rl = 0 then Some (chosen, Mask.take_lowest cap_mask n_l, None)
      else begin
        match find_remainder chosen cap_mask with
        | None -> None
        | Some (l, overlap) ->
            (* Choose S within cap_mask preferring indices reachable by
               the remainder leaf, then Sr inside S ∩ overlap. *)
            let s = Mask.take_preferring cap_mask ~prefer:overlap n_l in
            let sr = Mask.take_lowest (s land overlap) n_rl in
            Some (chosen, s, Some (l, sr))
      end
    end
    else begin
      let rec try_leaf l =
        if left.(l) < l_t - taken then None
        else begin
          let cap' = cap_mask land infos.(l).up_mask in
          let found =
            if left.(l) > left.(l + 1) && Mask.popcount cap' >= n_l then
              pick (l + 1) (taken + 1) (chosen lor (1 lsl l)) cap'
            else None
          in
          match found with Some _ -> found | None -> try_leaf (l + 1)
        end
      in
      try_leaf start
    end
  in
  match pick 0 0 0 (lnot 0) with
  | None -> None
  | Some (chosen, s_mask, rem) ->
      let full_leaves =
        Array.map
          (fun l -> materialize_leaf st ~leaf:infos.(l).leaf ~l2:s_mask)
          (Mask.to_array chosen)
      in
      let rem_leaf =
        Option.map
          (fun (l, sr_mask) -> materialize_leaf st ~leaf:infos.(l).leaf ~l2:sr_mask)
          rem
      in
      Some { Partition.pod; full_leaves; rem_leaf; spine_sets = [||] }

(* A pod with fewer than [l_t] candidate leaves is rejected from the
   state's cached counts before its leaf infos are built. *)
let can_host st ~pod ~(shape : Shapes.two_level) ~demand =
  (State.pod_candidates st ~pod ~demand).(shape.n_l - 1) >= shape.l_t

let find_two_level st ~job:_ ~pod ~shape ~demand =
  if can_host st ~pod ~shape ~demand then search_pod st ~pod ~shape ~demand
  else None

(* [left] starts as the number of pods with at least [l_t] candidate
   leaves for [n_l] nodes, read from the state's machine-wide histogram:
   a shape no pod can host costs one read instead of a pass over the
   pods, and the pass over pods stops once it has tried every pod that
   can.  The pods searched, and their order, are [find_two_level]'s.  A
   multi-pod request has no shape and reads nothing. *)
let two_level st ~job ~size ~alloc_size ~demand =
  let rec over_pods (shape : Shapes.two_level) pod left =
    if left = 0 then None
    else if not (can_host st ~pod ~shape ~demand) then
      over_pods shape (pod + 1) left
    else
      match search_pod st ~pod ~shape ~demand with
      | Some tree ->
          Some { Partition.job; size; full_trees = [| tree |]; rem_tree = None }
      | None -> over_pods shape (pod + 1) (left - 1)
  in
  match Shapes.two_level (State.topo st) ~size:alloc_size with
  | [] -> None
  | shapes ->
      let hosts = State.candidate_pods st ~demand in
      List.find_map
        (fun (shape : Shapes.two_level) ->
          over_pods shape 0 hosts.(shape.n_l - 1).(shape.l_t))
        shapes

(* The size guard, Algorithm 1's single-pod pass, then the scheme's own
   budgeted pass over pods.  A search that comes back empty gave up iff
   it spent the whole budget. *)
let probe st ~job ~size ~alloc_size ~demand ~budget three_level =
  let topo = State.topo st in
  if
    size <= 0
    || alloc_size < size
    || alloc_size > Topology.num_nodes topo
    || State.total_free_nodes st < alloc_size
  then Partition.Infeasible
  else
    match two_level st ~job ~size ~alloc_size ~demand with
    | Some p -> Partition.Found p
    | None -> (
        let budget = ref budget in
        match three_level ~budget with
        | Some p -> Partition.Found p
        | None ->
            if !budget <= 0 then Partition.Exhausted else Partition.Infeasible)

type walk = Complete of int | Cut | Stopped

exception Halt of walk

let iter_all st ~pod ~l_t ~n_l ~demand ~budget f =
  let infos = pod_leaf_infos st ~pod ~demand in
  let left = candidates_left infos ~n_l in
  (* Steps charged since the previous solution (or the start). *)
  let since = ref 0 in
  let rec pick start taken leaf_mask cap_mask =
    if !budget <= 0 then raise_notrace (Halt Cut);
    decr budget;
    incr since;
    if taken = l_t then begin
      let steps = !since in
      since := 0;
      if f { leaf_mask; cap_mask } ~steps then raise_notrace (Halt Stopped)
    end
    else begin
      let l = ref start in
      while left.(!l) >= l_t - taken do
        let cap' = cap_mask land infos.(!l).up_mask in
        if left.(!l) > left.(!l + 1) && Mask.popcount cap' >= n_l then
          pick (!l + 1) (taken + 1) (leaf_mask lor (1 lsl !l)) cap';
        incr l
      done
    end
  in
  match pick 0 0 0 (lnot 0) with
  | () -> Complete !since
  | exception Halt w -> w
