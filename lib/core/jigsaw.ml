open Fattree

let default_budget = 100_000

(* ------------------------------------------------------------------ *)
(* Three-level search with the full-leaf restriction.                  *)
(* ------------------------------------------------------------------ *)

(* Per-pod availability snapshot for the three-level search. *)
type pod_info = {
  pod : int;
  free_leaves : int array; (* fully-free leaf ids, ascending *)
  spine_masks : int array;
      (* per L2 index i: available spine indices (State.pod_spine_masks) *)
}

(* Both summary sources ([pod_fully_free_leaves], [leaf_fully_free]) and
   the state's per-pod spine-mask row are O(1) reads of State's
   incremental caches, so one pod's snapshot costs O(m2), plus O(m1) to
   refresh a stale spine row.  [try_three_level] builds each pod's
   snapshot only when its search first reaches that pod with a use for
   it; the spine row is only read, never written. *)
let pod_info st ~demand pod =
  let topo = State.topo st in
  let m2 = Topology.m2 topo in
  let count = State.pod_fully_free_leaves st ~pod in
  let free_leaves =
    if count = 0 then [||]
    else begin
      let arr = Array.make count 0 in
      let k = ref 0 in
      for l = 0 to m2 - 1 do
        let leaf = Topology.leaf_of_coords topo ~pod ~leaf:l in
        if !k < count && State.leaf_fully_free st leaf then begin
          arr.(!k) <- leaf;
          incr k
        end
      done;
      arr
    end
  in
  { pod; free_leaves; spine_masks = State.pod_spine_masks st ~pod ~demand }

(* Materialize one full tree: its first l_t fully-free leaves, all nodes,
   uplinks to every L2 index, and the chosen spine sets.  Spine sets come
   from [Mask.to_array], which fills a presized array, and the caller
   flattens the partition with [Partition.to_alloc], which fills
   presized arrays too. *)
let materialize_full_tree st info ~l_t ~s ~spine_sets =
  let leaves =
    Array.init l_t (fun k ->
        Search.materialize_leaf st ~leaf:info.free_leaves.(k)
          ~take:(Array.length s) ~l2_indices:(Array.copy s))
  in
  { Partition.pod = info.pod; full_leaves = leaves; rem_leaf = None; spine_sets }

(* Try to complete a remainder tree in pod [info]:
   l_rt fully-free leaves plus (if n_rl > 0) a distinct remainder leaf
   with n_rl free nodes and uplink cables at indices where the pod also
   has the extra spine capacity.  [inter] is the running spine-mask
   intersection of the chosen full pods.  Returns the remainder tree and
   the per-index spine needs/choices. *)
let try_remainder st info ~l_t ~l_rt ~n_rl ~demand ~inter =
  let topo = State.topo st in
  let m1 = Topology.m1 topo in
  if Array.length info.free_leaves < l_rt then None
  else begin
    (* avail.(i): spine indices usable by this pod's L2_i consistent with
       the full pods' common sets. *)
    let avail = Array.init m1 (fun i -> inter.(i) land info.spine_masks.(i)) in
    let base_ok =
      l_rt = 0
      || Array.for_all (fun a -> Mask.popcount a >= l_rt) avail
    in
    if not base_ok then None
    else if n_rl = 0 then begin
      let spine_sets =
        if l_rt = 0 then [||]
        else Array.init m1 (fun i -> (i, Mask.to_array (Mask.take_lowest avail.(i) l_rt)))
      in
      let s = Array.init m1 (fun i -> i) in
      let leaves =
        Array.init l_rt (fun k ->
            Search.materialize_leaf st ~leaf:info.free_leaves.(k) ~take:m1
              ~l2_indices:(Array.copy s))
      in
      Some
        ( { Partition.pod = info.pod; full_leaves = leaves; rem_leaf = None; spine_sets },
          spine_sets )
    end
    else begin
      (* Indices where an extra downlink (the remainder leaf) can be
         matched by an extra spine uplink. *)
      let extra_ok =
        Array.init m1 (fun i -> Mask.popcount avail.(i) >= l_rt + 1)
      in
      let used_leaves =
        Array.to_list (Array.sub info.free_leaves 0 (min l_rt (Array.length info.free_leaves)))
      in
      (* Candidate remainder leaf: any leaf of the pod, not among the
         chosen fully-free leaves, with >= n_rl free nodes and uplink
         cables at >= n_rl indices i where extra_ok.(i). *)
      let m2 = Topology.m2 topo in
      let rec find_leaf l =
        if l >= m2 then None
        else begin
          let leaf = Topology.leaf_of_coords topo ~pod:info.pod ~leaf:l in
          if List.mem leaf used_leaves then find_leaf (l + 1)
          else begin
            let free = State.free_nodes_on_leaf st leaf in
            let up = State.leaf_up_mask st ~leaf ~demand in
            let eligible = ref 0 in
            for i = 0 to m1 - 1 do
              if extra_ok.(i) && Mask.mem up i then
                eligible := !eligible lor (1 lsl i)
            done;
            if free >= n_rl && Mask.popcount !eligible >= n_rl then
              Some (leaf, Mask.take_lowest !eligible n_rl)
            else find_leaf (l + 1)
          end
        end
      in
      match find_leaf 0 with
      | None -> None
      | Some (leaf, sr_mask) ->
          let s = Array.init m1 (fun i -> i) in
          let leaves =
            Array.init l_rt (fun k ->
                Search.materialize_leaf st ~leaf:info.free_leaves.(k) ~take:m1
                  ~l2_indices:(Array.copy s))
          in
          let rem_leaf =
            Search.materialize_leaf st ~leaf ~take:n_rl
              ~l2_indices:(Mask.to_array sr_mask)
          in
          let spine_sets =
            let sets = ref [] in
            for i = m1 - 1 downto 0 do
              let need = l_rt + if Mask.mem sr_mask i then 1 else 0 in
              if need > 0 then
                sets := (i, Mask.to_array (Mask.take_lowest avail.(i) need)) :: !sets
            done;
            Array.of_list !sets
          in
          ignore l_t;
          Some
            ( {
                Partition.pod = info.pod;
                full_leaves = leaves;
                rem_leaf = Some rem_leaf;
                spine_sets;
              },
              spine_sets )
    end
  end

let try_three_level st ~job ~size ~alloc_size ~demand ~budget =
  let topo = State.topo st in
  let m1 = Topology.m1 topo and m3 = Topology.m3 topo in
  (* Quick necessary-condition filter: enough pods with enough fully-free
     leaves for the full trees and the remainder tree, one read each of
     the state's machine-wide histogram of its per-pod fully-free counts
     (each snapshot's [free_leaves] has exactly that length), so a probe
     with no shape left returns before any pod snapshot is built, and
     hopeless shapes are skipped before any backtracking. *)
  let pods_with = State.fully_free_pods st in
  let free_leaves pod = State.pod_fully_free_leaves st ~pod in
  let shapes =
    List.filter
      (fun (s : Shapes.three_level) ->
        pods_with.(s.l_t3) >= s.t
        && (s.n_rt = 0 || s.l_rt = 0 || pods_with.(s.l_rt) >= s.t + 1))
      (Shapes.three_level topo ~size:alloc_size ~n_l:m1)
  in
  (* Pod snapshots, built on first use and shared by every shape: a
     pod is snapshotted when [pick] reaches it as an eligible full-tree
     pod or [find_rem] as a remainder pod with enough fully-free
     leaves, so pods the search never consults cost nothing. *)
  let infos = Array.make m3 None in
  let info p =
    match infos.(p) with
    | Some i -> i
    | None ->
        let i = pod_info st ~demand p in
        infos.(p) <- Some i;
        i
  in
  let rec over_shapes = function
    | [] -> None
    | ({ Shapes.l_t3 = l_t; t; n_rt; l_rt; n_rl3 = n_rl; _ } : Shapes.three_level)
      :: rest ->
        let eligible p = free_leaves p >= l_t in
        (* Recursive backtracking over pods (find_L3).  [inter] is the
           per-L2-index intersection of available spine masks. *)
        let chosen = ref [] in
        let result = ref None in
        let rec pick start taken (inter : int array) =
          if !result <> None || !budget <= 0 then ()
          else begin
            decr budget;
            if taken = t then begin
              if n_rt = 0 then finish inter None
              else begin
                (* Find a remainder pod among pods not chosen. *)
                let in_chosen p = List.mem p !chosen in
                let rec find_rem p =
                  if p >= m3 || !result <> None then ()
                  else begin
                    (* [try_remainder] rejects a pod with fewer than
                       [l_rt] fully-free leaves before reading anything
                       else, so such a pod needs no snapshot. *)
                    if (not (in_chosen p)) && free_leaves p >= l_rt then begin
                      match
                        try_remainder st (info p) ~l_t ~l_rt ~n_rl ~demand
                          ~inter
                      with
                      | Some (tree, rem_spines) ->
                          finish inter (Some (tree, rem_spines))
                      | None -> find_rem (p + 1)
                    end
                    else find_rem (p + 1)
                  end
                in
                find_rem 0
              end
            end
            else begin
              let p = ref start in
              while !result = None && !p < m3 do
                if eligible !p then begin
                  let info = info !p in
                  let inter' =
                    Array.init m1 (fun i -> inter.(i) land info.spine_masks.(i))
                  in
                  if Array.for_all (fun x -> Mask.popcount x >= l_t) inter' then begin
                    chosen := !p :: !chosen;
                    pick (!p + 1) (taken + 1) inter';
                    if !result = None then chosen := List.tl !chosen
                  end
                end;
                incr p
              done
            end
          end
        and finish inter rem =
          (* Choose common spine sets: prefer indices the remainder tree
             can also reach so that its subsets are honoured. *)
          let rem_spines =
            match rem with Some (_, s) -> Some s | None -> None
          in
          let spine_sets =
            Array.init m1 (fun i ->
                let prefer =
                  match rem_spines with
                  | None -> 0
                  | Some sets ->
                      Array.fold_left
                        (fun acc (j, s) ->
                          if i = j then acc lor Mask.of_array s else acc)
                        0 sets
                in
                (i, Mask.to_array (Mask.take_preferring inter.(i) ~prefer l_t)))
          in
          let s = Array.init m1 (fun i -> i) in
          let full_trees =
            List.rev !chosen
            |> List.map (fun p ->
                   materialize_full_tree st (info p) ~l_t ~s ~spine_sets)
            |> Array.of_list
          in
          let rem_tree = Option.map fst rem in
          result := Some { Partition.job; size; full_trees; rem_tree }
        in
        pick 0 0 (Array.make m1 (lnot 0));
        (match !result with Some _ as ok -> ok | None -> over_shapes rest)
  in
  over_shapes shapes

let probe ?(demand = 1.0) ?(budget = default_budget) st ~job ~size =
  Search.probe st ~job ~size ~alloc_size:size ~demand ~budget
    (try_three_level st ~job ~size ~alloc_size:size ~demand)

let probe_whole_leaves ?(demand = 1.0) ?(budget = default_budget) st ~job
    ~size =
  let m1 = Topology.m1 (State.topo st) in
  let alloc_size = (size + m1 - 1) / m1 * m1 in
  Search.probe st ~job ~size ~alloc_size ~demand ~budget
    (try_three_level st ~job ~size ~alloc_size ~demand)
