open Fattree

let default_budget = 150_000

(* Per-state memo of [Search.iter_all] walks, living in the state's
   extension slot so it dies with the state (never shared across clones
   or sweep domains).  Entries are keyed by the full argument tuple,
   stamped with the pod's node generation, and record what the walk
   charged: the steps before each solution and the tail after the last.
   Only complete walks are recorded — one cut by the budget or stopped
   by its consumer never saw the rest of the pod.  A hit is replayed
   solution by solution, charging each its recorded steps while the
   budget covers them and stopping where a fresh walk with the same
   budget would be cut or stopped, so budget accounting — and therefore
   every Exhausted verdict and fingerprint — is bit-identical with or
   without the memo. *)
type sols_entry = {
  se_sols : Search.pod_solution list;
  se_steps : int list;  (** Steps before each of [se_sols]. *)
  se_tail : int;  (** Steps after the last solution. *)
  se_gen : int;
}

type lc_cache = (int * int * int * float, sols_entry) Hashtbl.t

type State.ext += Lc_cache of lc_cache

let cache_of st : lc_cache =
  match State.get_ext st with
  | Some (Lc_cache c) -> c
  | _ ->
      let c = Hashtbl.create 64 in
      State.set_ext st (Some (Lc_cache c));
      c

(* Run the walk live, offering each solution to [f]; record the entry
   if the walk completes. *)
let walk_and_record st ~pod ~l_t ~n_l ~demand ~budget f =
  let sols = ref [] and steps = ref [] in
  let walk =
    Search.iter_all st ~pod ~l_t ~n_l ~demand ~budget (fun sol ~steps:d ->
        sols := sol :: !sols;
        steps := d :: !steps;
        f sol)
  in
  match walk with
  | Search.Complete se_tail ->
      Hashtbl.replace (cache_of st) (pod, l_t, n_l, demand)
        {
          se_sols = List.rev !sols;
          se_steps = List.rev !steps;
          se_tail;
          se_gen = State.pod_node_generation st ~pod;
        }
  | Cut | Stopped -> ()

let cached_iter_all st ~pod ~l_t ~n_l ~demand ~budget f =
  match Hashtbl.find_opt (cache_of st) (pod, l_t, n_l, demand) with
  | Some e when e.se_gen = State.pod_node_generation st ~pod ->
      (* A live walk with budget [b] charges [d] steps to reach the next
         solution if [b >= d]; otherwise it is cut, leaving [min b 0]. *)
      let charge d =
        if !budget >= d then begin
          budget := !budget - d;
          true
        end
        else begin
          budget := min !budget 0;
          false
        end
      in
      let rec replay sols steps =
        match (sols, steps) with
        | sol :: sols, d :: steps ->
            if charge d && not (f sol) then replay sols steps
        | _ -> ignore (charge e.se_tail)
      in
      replay e.se_sols e.se_steps
  | _ -> walk_and_record st ~pod ~l_t ~n_l ~demand ~budget f

let cached_find_all st ~pod ~l_t ~n_l ~demand ~budget =
  let sols = ref [] in
  cached_iter_all st ~pod ~l_t ~n_l ~demand ~budget (fun sol ->
      sols := sol :: !sols;
      false);
  List.rev !sols

(* Materialize a full tree from a pod solution: every leaf carries n_l
   nodes uplinked to the common set [s] (a mask); spine sets attach to
   the indices of [s].  Leaf ids come straight from the solution's
   bitmask through [Mask.to_array] (a presized array). *)
let materialize_tree st ~pod ~(sol : Search.pod_solution) ~s ~spine_sets =
  let topo = State.topo st in
  let leaves =
    Array.map
      (fun l ->
        Search.materialize_leaf st
          ~leaf:(Topology.leaf_of_coords topo ~pod ~leaf:l)
          ~l2:s)
      (Mask.to_array sol.leaf_mask)
  in
  { Partition.pod; full_leaves = leaves; rem_leaf = None; spine_sets }

let try_three_level st ~job ~size ~demand ~budget =
  let topo = State.topo st in
  let m1 = Topology.m1 topo and m3 = Topology.m3 topo in
  (* Cheap per-shape feasibility precheck: [hosts.(n_l-1).(k)] is the
     number of pods with at least k leaves that could carry n_l nodes at
     this demand, read from the state's machine-wide histogram of its
     per-pod candidate counts, so each shape is checked in O(1).  A
     shape needing t full pods of l_t such leaves (plus a remainder pod)
     is skipped outright when the counts cannot support it, so hopeless
     shapes burn no search budget and need no spine masks.  Necessary
     conditions only — the precheck must never reject a feasible shape,
     so the remainder pod is tested against its full leaves alone (the
     remainder leaf's needs are weaker than n_l). *)
  let hosts = State.candidate_pods st ~demand in
  let shape_feasible (s : Shapes.three_level) =
    let pods_with k = hosts.(s.n_l3 - 1).(k) in
    pods_with s.l_t3 >= s.t
    && (s.n_rt = 0 || s.l_rt = 0 || pods_with s.l_rt >= s.t + 1)
  in
  let shapes = List.filter shape_feasible (Shapes.three_level_all topo ~size) in
  (* Spine availability per pod and L2 index, read only once a shape
     survives, from the state's incrementally maintained cache — a pod
     untouched since the last probe costs one generation compare instead
     of an m1 x m2 rescan. *)
  let spines =
    lazy (Array.init m3 (fun pod -> State.pod_spine_masks st ~pod ~demand))
  in
  let rec over_shapes = function
    | [] -> None
    | ({ Shapes.n_l3 = n_l; l_t3 = l_t; t; n_rt; l_rt; n_rl3 = n_rl; _ }
        : Shapes.three_level)
      :: rest ->
        if !budget <= 0 then None
        else begin
          let spines = Lazy.force spines in
          (* Enumerate per-pod solutions for full trees (l_t leaves of n_l
             nodes) lazily, pod by pod, caching results. *)
          let sol_cache : Search.pod_solution list option array =
            Array.make m3 None
          in
          let sols p =
            match sol_cache.(p) with
            | Some s -> s
            | None ->
                let s = cached_find_all st ~pod:p ~l_t ~n_l ~demand ~budget in
                sol_cache.(p) <- Some s;
                s
          in
          let result = ref None in
          (* Spine feasibility of index i at intersection [spine_inter]:
             it can serve as a member of S for the full trees. *)
          let feasible_count cap_inter spine_inter =
            let c = ref 0 in
            for i = 0 to m1 - 1 do
              if Mask.mem cap_inter i && Mask.popcount spine_inter.(i) >= l_t
              then incr c
            done;
            !c
          in
          let finish chosen cap_inter spine_inter =
            (* chosen: (pod, solution) list in reverse order. *)
            if n_rt = 0 then begin
              (* Select S: lowest n_l feasible indices. *)
              let ok = ref 0 in
              for i = m1 - 1 downto 0 do
                if Mask.mem cap_inter i && Mask.popcount spine_inter.(i) >= l_t
                then ok := !ok lor (1 lsl i)
              done;
              if Mask.popcount !ok >= n_l then begin
                let s = Mask.take_lowest !ok n_l in
                let spine_sets =
                  Array.map
                    (fun i -> (i, Mask.take_lowest spine_inter.(i) l_t))
                    (Mask.to_array s)
                in
                let full_trees =
                  List.rev chosen
                  |> List.map (fun (p, sol) ->
                         materialize_tree st ~pod:p ~sol ~s ~spine_sets)
                  |> Array.of_list
                in
                result := Some { Partition.job; size; full_trees; rem_tree = None }
              end
            end
            else begin
              (* Look for a remainder pod: l_rt full leaves (+ remainder
                 leaf when n_rl > 0). *)
              let chosen_pods = List.map fst chosen in
              let rec over_pods q =
                if q >= m3 || !result <> None || !budget <= 0 then ()
                else begin
                  if not (List.mem q chosen_pods) then begin
                    if l_rt = 0 then
                      attempt q { Search.leaf_mask = 0; cap_mask = lnot 0 }
                    else
                      (* First fit: try each solution as the walk finds
                         it, instead of listing the pod's solutions
                         before trying the first. *)
                      cached_iter_all st ~pod:q ~l_t:l_rt ~n_l ~demand ~budget
                        (fun qsol ->
                          attempt q qsol;
                          !result <> None || !budget <= 0)
                  end;
                  if !result = None then over_pods (q + 1)
                end
              and attempt q (qsol : Search.pod_solution) =
                decr budget;
                (* Base feasibility per index. *)
                let aq i = spine_inter.(i) land spines.(q).(i) in
                let idx_base = ref 0 in
                for i = 0 to m1 - 1 do
                  if
                    Mask.mem cap_inter i
                    && Mask.mem qsol.cap_mask i
                    && Mask.popcount spine_inter.(i) >= l_t
                    && (l_rt = 0 || Mask.popcount (aq i) >= l_rt)
                  then idx_base := !idx_base lor (1 lsl i)
                done;
                if n_rl = 0 then begin
                  if Mask.popcount !idx_base >= n_l then begin
                    let s_mask = Mask.take_lowest !idx_base n_l in
                    commit q qsol None s_mask
                  end
                end
                else begin
                  (* Need a remainder leaf in pod q, distinct from the
                     solution's leaves. *)
                  let topo = State.topo st in
                  let m2 = Topology.m2 topo in
                  let rec find_leaf l =
                    if l >= m2 || !result <> None then ()
                    else begin
                      let leaf = Topology.leaf_of_coords topo ~pod:q ~leaf:l in
                      if not (Mask.mem qsol.leaf_mask l) then begin
                        let free = State.free_nodes_on_leaf st leaf in
                        let up = State.leaf_up_mask st ~leaf ~demand in
                        if free >= n_rl then begin
                          let idx_extra = ref 0 in
                          for i = 0 to m1 - 1 do
                            if
                              Mask.mem !idx_base i
                              && Mask.mem up i
                              && Mask.popcount (aq i) >= l_rt + 1
                            then idx_extra := !idx_extra lor (1 lsl i)
                          done;
                          if Mask.popcount !idx_extra >= n_rl then begin
                            let s_mask =
                              Mask.take_preferring !idx_base ~prefer:!idx_extra
                                n_l
                            in
                            let sr =
                              Mask.take_lowest (s_mask land !idx_extra) n_rl
                            in
                            commit q qsol (Some (leaf, sr)) s_mask
                          end
                        end
                      end;
                      if !result = None then find_leaf (l + 1)
                    end
                  in
                  if Mask.popcount !idx_base >= n_l then find_leaf 0
                end
              and commit q qsol rem s =
                let s_indices = Mask.to_array s in
                let aq i = spine_inter.(i) land spines.(q).(i) in
                (* Remainder spine sets first, then common sets preferring
                   them. *)
                let rem_leaf_alloc, sr_mask =
                  match rem with
                  | None -> (None, 0)
                  | Some (leaf, sr) ->
                      (Some (Search.materialize_leaf st ~leaf ~l2:sr), sr)
                in
                let rem_spine_sets =
                  let sets = ref [] in
                  Array.iter
                    (fun i ->
                      let need = l_rt + if Mask.mem sr_mask i then 1 else 0 in
                      if need > 0 then
                        sets := (i, Mask.take_lowest (aq i) need) :: !sets)
                    s_indices;
                  Array.of_list (List.rev !sets)
                in
                let spine_sets =
                  Array.map
                    (fun i ->
                      let prefer =
                        Array.fold_left
                          (fun acc (j, m) -> if i = j then acc lor m else acc)
                          0 rem_spine_sets
                      in
                      (i, Mask.take_preferring spine_inter.(i) ~prefer l_t))
                    s_indices
                in
                let full_trees =
                  List.rev chosen
                  |> List.map (fun (p, sol) ->
                         materialize_tree st ~pod:p ~sol ~s ~spine_sets)
                  |> Array.of_list
                in
                let rem_tree =
                  {
                    (materialize_tree st ~pod:q ~sol:qsol ~s
                       ~spine_sets:rem_spine_sets)
                    with
                    rem_leaf = rem_leaf_alloc;
                  }
                in
                result :=
                  Some { Partition.job; size; full_trees; rem_tree = Some rem_tree }
              in
              over_pods 0
            end
          in
          (* Backtracking over pods for the t full trees. *)
          let rec pick start taken chosen cap_inter spine_inter =
            if !result <> None || !budget <= 0 then ()
            else begin
              decr budget;
              if taken = t then finish chosen cap_inter spine_inter
              else begin
                let p = ref start in
                while !result = None && !budget > 0 && !p < m3 do
                  let pod = !p in
                  let rec over = function
                    | [] -> ()
                    | (sol : Search.pod_solution) :: more ->
                        let cap' = cap_inter land sol.cap_mask in
                        if Mask.popcount cap' >= n_l then begin
                          let spine' =
                            Array.init m1 (fun i ->
                                spine_inter.(i) land spines.(pod).(i))
                          in
                          if feasible_count cap' spine' >= n_l then
                            pick (pod + 1) (taken + 1) ((pod, sol) :: chosen)
                              cap' spine'
                        end;
                        if !result = None && !budget > 0 then over more
                  in
                  over (sols pod);
                  incr p
                done
              end
            end
          in
          pick 0 0 [] (Mask.full m1) (Array.make m1 (lnot 0));
          (match !result with
          | Some _ as ok -> ok
          | None -> if !budget <= 0 then None else over_shapes rest)
        end
  in
  over_shapes shapes

let probe ?(demand = 1.0) ?(budget = default_budget) st ~job ~size =
  Search.probe st ~job ~size ~alloc_size:size ~demand ~budget
    (try_three_level st ~job ~size ~demand)
