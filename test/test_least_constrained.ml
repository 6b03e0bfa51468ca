(* Tests for the least-constrained (LC / LC+S) search. *)

open Fattree
open Jigsaw_core

let topo = Topology.of_radix 8

let test_basic_allocations_legal () =
  let st = State.create topo in
  List.iteri
    (fun job size ->
      match Least_constrained.probe st ~job ~size with
      | Partition.Infeasible | Exhausted ->
          Alcotest.failf "size %d failed on empty machine" size
      | Found p ->
          (match Conditions.check topo p with
          | Ok () -> ()
          | Error m -> Alcotest.failf "size %d illegal: %s" size m);
          Alcotest.(check int) "exact" size (Partition.node_count p);
          State.claim_exn st (Partition.to_alloc topo p ~bw:1.0))
    [ 1; 5; 17; 23; 40; 13 ]

let test_more_permissive_than_jigsaw () =
  (* Occupy one node on every leaf: Jigsaw's three-level search needs
     fully-free leaves and fails for a >pod job, while LC can still use
     partial leaves (n_l = 3). *)
  let st = State.create topo in
  for leaf = 0 to Topology.num_leaves topo - 1 do
    State.claim_exn st
      (Alloc.nodes_only ~job:(1000 + leaf) ~size:1
         [| Topology.leaf_first_node topo leaf |])
  done;
  Alcotest.(check bool) "Jigsaw fails" true
    (Jigsaw.probe st ~job:0 ~size:17 = Partition.Infeasible);
  match Least_constrained.probe st ~job:0 ~size:17 with
  | Partition.Infeasible | Exhausted ->
      Alcotest.fail "LC should succeed with n_l <= 3"
  | Found p ->
      Alcotest.(check bool) "legal" true (Conditions.is_legal topo p);
      Alcotest.(check bool) "uses partial leaves" true (Partition.n_l p < 4);
      State.claim_exn st (Partition.to_alloc topo p ~bw:1.0)

let test_fractional_demand_shares_links () =
  let st = State.create topo in
  (* Two 20-node jobs at demand 0.5 share spine cables; exclusive
     (demand 1.0) jobs could not both span pods this way after the
     machine fills.  Just verify both claims succeed at 0.5. *)
  let alloc_one job =
    match Least_constrained.probe ~demand:0.5 st ~job ~size:20 with
    | Partition.Found p ->
        State.claim_exn st (Partition.to_alloc topo p ~bw:0.5);
        p
    | Infeasible | Exhausted -> Alcotest.failf "job %d failed" job
  in
  let p1 = alloc_one 1 in
  let p2 = alloc_one 2 in
  Alcotest.(check int) "both sized" 40
    (Partition.node_count p1 + Partition.node_count p2)

let test_budget_exhaustion () =
  let st = State.create topo in
  (* Tiny budget: the three-level search cannot finish.  (Two-level
     placements carry no budget, so pick a size that spans pods.) *)
  Alcotest.(check bool) "gives up gracefully" true
    (Least_constrained.probe ~budget:1 st ~job:0 ~size:100
    = Partition.Exhausted)

let test_multi_pod_radix48_within_budget () =
  (* 800 nodes span two radix-48 pods; the dense-first shape wants a
     full 24-leaf pod, which the remaining-candidates bound finds in a
     few dozen steps instead of walking all 2^24 leaf subsets. *)
  let topo = Topology.of_radix 48 in
  let st = State.create topo in
  match Least_constrained.probe ~budget:10_000 st ~job:0 ~size:800 with
  | Partition.Found p ->
      Alcotest.(check int) "exact" 800 (Partition.node_count p);
      Alcotest.(check bool) "legal" true (Conditions.is_legal topo p)
  | Partition.Exhausted -> Alcotest.fail "gave up"
  | Partition.Infeasible -> Alcotest.fail "infeasible on an empty machine"

let test_rejects_oversize () =
  let st = State.create topo in
  Alcotest.(check bool) "too big" true
    (Least_constrained.probe st ~job:0 ~size:129 = Partition.Infeasible)

(* Property: LC succeeds whenever Jigsaw does (it searches a superset of
   the shape space), and its partitions are always legal. *)
let prop_lc_superset_of_jigsaw =
  QCheck2.Test.make ~name:"LC places whatever Jigsaw places" ~count:40
    QCheck2.Gen.(pair (int_range 1 60) (int_range 0 100_000))
    (fun (size, seed) ->
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      (* Light random churn first. *)
      for j = 0 to 6 do
        let s = Sim.Prng.int_in prng ~lo:1 ~hi:16 in
        match Jigsaw.probe st ~job:(500 + j) ~size:s with
        | Partition.Found p ->
            State.claim_exn st (Partition.to_alloc topo p ~bw:1.0)
        | Infeasible | Exhausted -> ()
      done;
      match Jigsaw.probe st ~job:0 ~size with
      | Partition.Infeasible | Exhausted -> true (* nothing to compare *)
      | Found _ -> (
          match Least_constrained.probe st ~job:0 ~size with
          | Partition.Found p -> Conditions.is_legal topo p
          | Infeasible | Exhausted -> false))

(* ------------------------------------------------------------------ *)
(* The lazy remainder-pod search against the eager one it replaced.    *)
(* ------------------------------------------------------------------ *)

(* The three-level search as it was when the remainder pod's solutions
   were all listed (by an uncached [Test_search.find_all]) before the first
   was tried.  The lazy search tries the same (pod, solution) sequence
   with at least as much budget at every point, so it must reproduce
   every verdict here that is not [Exhausted]. *)
module Eager = struct
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
    (* Spine availability per pod and L2 index: consulted from the state's
       incrementally maintained cache — a pod untouched since the last
       probe costs one generation compare instead of an m1 x m2 rescan. *)
    let spines = Array.init m3 (fun pod -> State.pod_spine_masks st ~pod ~demand) in
    let shapes = ref [] in
    Shapes.three_level_all topo ~size (fun s ->
        shapes := s :: !shapes;
        false);
    let shapes = List.rev !shapes in
    (* Cheap per-shape feasibility precheck: candidate_leaves.(pod).(n_l-1)
       counts leaves that could carry n_l nodes at this demand.  A shape
       needing t full pods of l_t such leaves (plus a remainder pod) is
       skipped outright when the counts cannot support it, so hopeless
       shapes do not burn search budget.  Counts come from the same
       generation-validated cache. *)
    let candidate_leaves =
      Array.init m3 (fun pod -> State.pod_candidates st ~pod ~demand)
    in
    let shape_feasible (s : Shapes.three_level) =
      let pods_with k =
        let c = ref 0 in
        Array.iter
          (fun counts -> if counts.(s.n_l3 - 1) >= k then incr c)
          candidate_leaves;
        !c
      in
      (* Necessary conditions only — the precheck must never reject a
         feasible shape, so the remainder pod is tested against its full
         leaves alone (the remainder leaf's needs are weaker than n_l). *)
      let full_ok = pods_with s.l_t3 >= s.t in
      let rem_ok =
        s.n_rt = 0 || s.l_rt = 0 || pods_with s.l_rt >= s.t + 1
      in
      full_ok && rem_ok
    in
    let shapes = List.filter shape_feasible shapes in
    let rec over_shapes = function
      | [] -> None
      | ({ Shapes.n_l3 = n_l; l_t3 = l_t; t; n_rt; l_rt; n_rl3 = n_rl; _ }
          : Shapes.three_level)
        :: rest ->
          if !budget <= 0 then None
          else begin
            (* Enumerate per-pod solutions for full trees (l_t leaves of n_l
               nodes) lazily, pod by pod, caching results. *)
            let sol_cache : Search.pod_solution list option array =
              Array.make m3 None
            in
            let sols p =
              match sol_cache.(p) with
              | Some s -> s
              | None ->
                  let s =
                    Test_search.find_all st ~pod:p ~l_t ~n_l ~demand ~budget
                  in
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
                      let q_sols =
                        if l_rt = 0 then
                          [ { Search.leaf_mask = 0; cap_mask = lnot 0 } ]
                        else
                          Test_search.find_all st ~pod:q ~l_t:l_rt ~n_l ~demand
                            ~budget
                      in
                      over_q_sols q q_sols
                    end;
                    if !result = None then over_pods (q + 1)
                  end
                and over_q_sols q = function
                  | [] -> ()
                  | (qsol : Search.pod_solution) :: more ->
                      attempt q qsol;
                      if !result = None && !budget > 0 then over_q_sols q more
                and attempt q qsol =
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

  let eager_probe ~demand ~budget st ~job ~size =
    let topo = State.topo st in
    if size <= 0 || size > Topology.num_nodes topo || State.total_free_nodes st < size
    then Partition.Infeasible
    else begin
      match Search.two_level st ~job ~size ~alloc_size:size ~demand with
      | Some p -> Partition.Found p
      | None -> (
          let budget = ref budget in
          match try_three_level st ~job ~size ~demand ~budget with
          | Some p -> Partition.Found p
          | None ->
              if !budget <= 0 then Partition.Exhausted else Partition.Infeasible)
    end
end

(* A random machine: each node busy with probability [p_node], each
   leaf uplink and each L2 uplink claimed at a random bandwidth with
   probability [p_cable]. *)
let random_state ~radix ~seed =
  let topo = Topology.of_radix radix in
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed in
  let p_node = Sim.Prng.float prng ~bound:0.5 in
  let p_cable = Sim.Prng.float prng ~bound:0.3 in
  let coin p = Sim.Prng.float prng ~bound:1.0 < p in
  let bw () = if Sim.Prng.int_in prng ~lo:0 ~hi:1 = 0 then 0.5 else 1.0 in
  let job = ref 0 in
  let claim_cable ~leaf_cables ~l2_cables =
    incr job;
    State.claim_exn st
      { Alloc.job = !job; size = 0; nodes = [||]; leaf_cables; l2_cables; bw = bw () }
  in
  for node = 0 to Topology.num_nodes topo - 1 do
    if coin p_node then begin
      incr job;
      State.claim_exn st (Alloc.nodes_only ~job:!job ~size:1 [| node |])
    end
  done;
  for c = 0 to Topology.num_leaf_l2_cables topo - 1 do
    if coin p_cable then claim_cable ~leaf_cables:[| c |] ~l2_cables:[||]
  done;
  for c = 0 to Topology.num_l2_spine_cables topo - 1 do
    if coin p_cable then claim_cable ~leaf_cables:[||] ~l2_cables:[| c |]
  done;
  (st, prng)

(* A multi-pod request: more than a pod, at most 3/4 of the free nodes. *)
let multi_pod_size st prng =
  let topo = State.topo st in
  let lo = Topology.nodes_per_pod topo + 1 in
  let hi = max lo (State.total_free_nodes st * 3 / 4) in
  Sim.Prng.int_in prng ~lo ~hi

let gen_probe_case =
  QCheck2.Gen.(
    quad (oneofl [ 8; 12 ]) (oneofl [ 1.0; 0.5 ]) (int_range 1 5_000)
      (int_range 0 1_000_000))

let print_probe_case (radix, demand, budget, seed) =
  Printf.sprintf "radix %d demand %.1f budget %d seed %d" radix demand budget
    seed

(* The least budget in [1, hi] at which a cold probe is not [Exhausted].
   A probe with budget [b] follows the unbounded search for its first
   [b] steps, so once a budget decides, every larger one decides the
   same way. *)
let deciding_budget st ~demand ~size ~hi =
  let decides b =
    Least_constrained.probe ~demand ~budget:b (State.clone st) ~job:0 ~size
    <> Partition.Exhausted
  in
  if not (decides hi) then None
  else begin
    let lo = ref 0 and hi = ref hi in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if decides mid then hi := mid else lo := mid
    done;
    Some !hi
  end

let prop_warm_records_match_cold =
  QCheck2.Test.make ~name:"probe on warm per-demand records == on a cold clone"
    ~count:150
    ~print:print_probe_case gen_probe_case
    (fun (radix, demand, budget, seed) ->
      let st, prng = random_state ~radix ~seed in
      let size = multi_pod_size st prng in
      let probe st b = Least_constrained.probe ~demand ~budget:b st ~job:0 ~size in
      (* The drawn budget, and the two around the point where the cold
         search first decides: a stale record that hides or invents a
         candidate moves that point. *)
      let budgets =
        budget
        ::
        (match deciding_budget st ~demand ~size ~hi:5_000 with
        | Some b when b > 1 -> [ b - 1; b ]
        | _ -> [])
      in
      (* Warm the state's per-demand records with earlier probes, cut
         short and complete, of this request and of others. *)
      for _ = 1 to 3 do
        ignore (probe st (Sim.Prng.int_in prng ~lo:1 ~hi:5_000));
        let size = multi_pod_size st prng in
        ignore (Least_constrained.probe ~demand st ~job:1 ~size)
      done;
      ignore (probe st Least_constrained.default_budget);
      List.for_all (fun b -> probe st b = probe (State.clone st) b) budgets)

let prop_lazy_matches_eager =
  QCheck2.Test.make ~name:"lazy remainder == eager, where eager decides"
    ~count:150 ~print:print_probe_case gen_probe_case
    (fun (radix, demand, budget, seed) ->
      let st, prng = random_state ~radix ~seed in
      let size = multi_pod_size st prng in
      match Eager.eager_probe ~demand ~budget st ~job:0 ~size with
      | Partition.Exhausted -> true
      | verdict ->
          verdict = Least_constrained.probe ~demand ~budget st ~job:0 ~size)

let suite =
  [
    Alcotest.test_case "legal allocations" `Quick test_basic_allocations_legal;
    Alcotest.test_case "more permissive than Jigsaw" `Quick test_more_permissive_than_jigsaw;
    Alcotest.test_case "fractional demands share links" `Quick test_fractional_demand_shares_links;
    Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
    Alcotest.test_case "oversize rejected" `Quick test_rejects_oversize;
    Alcotest.test_case "radix-48 multi-pod within 10k steps" `Quick
      test_multi_pod_radix48_within_budget;
    QCheck_alcotest.to_alcotest prop_lc_superset_of_jigsaw;
    QCheck_alcotest.to_alcotest prop_warm_records_match_cold;
    QCheck_alcotest.to_alcotest prop_lazy_matches_eager;
  ]
