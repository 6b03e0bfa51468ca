(* Tests for the pod-level (two-level) search machinery. *)

open Fattree
open Jigsaw_core

let topo = Topology.of_radix 8 (* m1 = m2 = 4 *)

(* Every solution [Search.iter_all] emits, in its order: the whole list
   when the walk completes, the ones found before the budget cut it. *)
let find_all st ~pod ~l_t ~n_l ~demand ~budget =
  let sols = ref [] in
  ignore
    (Search.iter_all st ~pod ~l_t ~n_l ~demand ~budget (fun sol ~steps:_ ->
         sols := sol :: !sols;
         false));
  List.rev !sols

let test_pod_leaf_infos_fresh () =
  let st = State.create topo in
  let infos = Search.pod_leaf_infos st ~pod:0 ~demand:1.0 in
  Alcotest.(check int) "m2 entries" 4 (Array.length infos);
  Array.iter
    (fun (i : Search.leaf_info) ->
      Alcotest.(check int) "all free" 4 i.free;
      Alcotest.(check int) "full mask" 0b1111 i.up_mask)
    infos

let test_pod_leaf_infos_after_claims () =
  let st = State.create topo in
  State.claim_exn st (Alloc.nodes_only ~job:0 ~size:2 [| 0; 1 |]);
  let c = Topology.leaf_l2_cable topo ~leaf:1 ~l2_index:3 in
  State.claim_exn st
    { Alloc.job = 1; size = 0; nodes = [||]; leaf_cables = [| c |]; l2_cables = [||]; bw = 1.0 };
  let infos = Search.pod_leaf_infos st ~pod:0 ~demand:1.0 in
  Alcotest.(check int) "leaf 0 free" 2 infos.(0).free;
  Alcotest.(check int) "leaf 1 mask" 0b0111 infos.(1).up_mask

let test_find_two_level_simple () =
  let st = State.create topo in
  let shape = { Shapes.n_l = 2; l_t = 2; n_rl = 1 } in
  match Search.find_two_level st ~job:0 ~pod:0 ~shape ~demand:1.0 with
  | None -> Alcotest.fail "should fit"
  | Some tree ->
      Alcotest.(check int) "two full leaves" 2 (Array.length tree.full_leaves);
      Alcotest.(check bool) "remainder present" true (tree.rem_leaf <> None);
      Alcotest.(check int) "no spines" 0 (Array.length tree.spine_sets);
      (* Validate through the conditions checker as a single-pod
         partition. *)
      let p =
        { Partition.job = 0; size = 5; full_trees = [| tree |]; rem_tree = None }
      in
      Alcotest.(check bool) "legal" true (Conditions.is_legal topo p)

let test_find_two_level_backtracks () =
  (* Make leaf 0 attractive but incompatible: it has nodes free but only
     uplinks {2,3}; leaves 1 and 2 have uplinks {0,1}; leaf 3 has none.
     A 2x2-node job needs a common pair, so the search must first try
     leaf 0, fail to extend it, and back up to the {1,2} solution. *)
  let st = State.create topo in
  let claim_cables leaf idxs =
    State.claim_exn st
      {
        Alloc.job = 99;
        size = 0;
        nodes = [||];
        leaf_cables =
          Array.of_list
            (List.map (fun i -> Topology.leaf_l2_cable topo ~leaf ~l2_index:i) idxs);
        l2_cables = [||];
        bw = 1.0;
      }
  in
  claim_cables 0 [ 0; 1 ];
  claim_cables 1 [ 2; 3 ];
  claim_cables 2 [ 2; 3 ];
  claim_cables 3 [ 0; 1; 2; 3 ];
  let shape = { Shapes.n_l = 2; l_t = 2; n_rl = 0 } in
  match Search.find_two_level st ~job:0 ~pod:0 ~shape ~demand:1.0 with
  | None -> Alcotest.fail "leaves 1,2 fit"
  | Some tree ->
      let leaves =
        List.sort compare
          (Array.to_list
             (Array.map (fun (l : Partition.leaf_alloc) -> l.leaf) tree.full_leaves))
      in
      Alcotest.(check (list int)) "skipped leaf 0" [ 1; 2 ] leaves

let test_find_two_level_infeasible () =
  let st = State.create topo in
  (* Make every leaf hold at most 1 free node. *)
  for leaf = 0 to 3 do
    let first = Topology.leaf_first_node topo leaf in
    State.claim_exn st
      (Alloc.nodes_only ~job:leaf ~size:3 [| first; first + 1; first + 2 |])
  done;
  let shape = { Shapes.n_l = 2; l_t = 1; n_rl = 0 } in
  Alcotest.(check bool) "no 2-node leaf" true
    (Search.find_two_level st ~job:0 ~pod:0 ~shape ~demand:1.0 = None)

let test_find_all_enumerates () =
  let st = State.create topo in
  let budget = ref 1_000_000 in
  let sols = find_all st ~pod:0 ~l_t:2 ~n_l:4 ~demand:1.0 ~budget in
  (* choose 2 of 4 fully-free leaves: C(4,2) = 6. *)
  Alcotest.(check int) "C(4,2) solutions" 6 (List.length sols);
  List.iter
    (fun (s : Search.pod_solution) ->
      Alcotest.(check int) "two leaves" 2 (Mask.popcount s.leaf_mask);
      Alcotest.(check int) "full capability" 0b1111 (s.cap_mask land 0b1111))
    sols

let test_find_all_budget () =
  let st = State.create topo in
  let budget = ref 3 in
  let sols = find_all st ~pod:0 ~l_t:2 ~n_l:4 ~demand:1.0 ~budget in
  Alcotest.(check bool) "cut short" true (List.length sols < 6);
  Alcotest.(check bool) "budget drained" true (!budget <= 0)

let test_fractional_demand_search () =
  (* At demand 0.5 a cable claimed at 0.5 still qualifies; at 1.0 it is
     out.  The search must honour the demand threshold. *)
  let st = State.create topo in
  let half_claim leaf i =
    State.claim_exn st
      {
        Alloc.job = 42;
        size = 0;
        nodes = [||];
        leaf_cables = [| Topology.leaf_l2_cable topo ~leaf ~l2_index:i |];
        l2_cables = [||];
        bw = 0.5;
      }
  in
  for i = 0 to 3 do
    half_claim 0 i
  done;
  let shape = { Shapes.n_l = 4; l_t = 1; n_rl = 0 } in
  (* Exclusive search must avoid leaf 0 entirely. *)
  (match Search.find_two_level st ~job:0 ~pod:0 ~shape ~demand:1.0 with
  | Some tree -> Alcotest.(check bool) "skips leaf 0" true (tree.full_leaves.(0).leaf <> 0)
  | None -> Alcotest.fail "other leaves available");
  (* Fractional search may use it. *)
  match Search.find_two_level st ~job:0 ~pod:0 ~shape ~demand:0.5 with
  | Some tree -> Alcotest.(check int) "uses leaf 0" 0 tree.full_leaves.(0).leaf
  | None -> Alcotest.fail "fractional capacity exists"

let test_materialize_leaf () =
  let st = State.create topo in
  State.claim_exn st (Alloc.nodes_only ~job:0 ~size:1 [| 1 |]);
  let la = Search.materialize_leaf st ~leaf:0 ~l2:0b101 in
  (* lowest free slots on leaf 0 are 0 and 2. *)
  Alcotest.(check (array int)) "skips busy slot" [| 0; 2 |]
    (Partition.leaf_nodes topo la);
  Alcotest.(check (array int)) "uplinks recorded" [| 0; 2 |]
    (Partition.leaf_l2_indices la)

(* ------------------------------------------------------------------ *)
(* The remaining-candidates bound: the pruned searches must agree with
   unpruned reference searches (the leaf loops before the bound) and
   never spend more budget.                                           *)
(* ------------------------------------------------------------------ *)

let ref_candidate ~n_l (i : Search.leaf_info) =
  i.free >= n_l && Mask.popcount i.up_mask >= n_l

let ref_find_all st ~pod ~l_t ~n_l ~demand ~budget =
  let infos = Search.pod_leaf_infos st ~pod ~demand in
  let m2 = Array.length infos in
  let sols = ref [] in
  let rec pick start taken leaf_mask cap_mask =
    if !budget > 0 then begin
      decr budget;
      if taken = l_t then sols := { Search.leaf_mask; cap_mask } :: !sols
      else
        for l = start to m2 - 1 do
          let cap' = cap_mask land infos.(l).up_mask in
          if ref_candidate ~n_l infos.(l) && Mask.popcount cap' >= n_l then
            pick (l + 1) (taken + 1) (leaf_mask lor (1 lsl l)) cap'
        done
    end
  in
  pick 0 0 0 (lnot 0);
  List.rev !sols

let ref_find_two_level st ~pod ~(shape : Shapes.two_level) ~demand =
  let { Shapes.n_l; l_t; n_rl } = shape in
  let infos = Search.pod_leaf_infos st ~pod ~demand in
  let m2 = Array.length infos in
  let rec find_rem chosen cap l =
    if l >= m2 then None
    else begin
      let overlap = infos.(l).up_mask land cap in
      if
        (not (Mask.mem chosen l))
        && infos.(l).free >= n_rl
        && Mask.popcount overlap >= n_rl
      then Some (l, overlap)
      else find_rem chosen cap (l + 1)
    end
  in
  let rec pick start taken chosen cap =
    if taken = l_t then
      if n_rl = 0 then Some (chosen, Mask.take_lowest cap n_l, None)
      else
        Option.map
          (fun (l, overlap) ->
            let s = Mask.take_preferring cap ~prefer:overlap n_l in
            (chosen, s, Some (l, Mask.take_lowest (s land overlap) n_rl)))
          (find_rem chosen cap 0)
    else begin
      let rec try_leaf l =
        if l >= m2 then None
        else begin
          let cap' = cap land infos.(l).up_mask in
          let found =
            if ref_candidate ~n_l infos.(l) && Mask.popcount cap' >= n_l then
              pick (l + 1) (taken + 1) (chosen lor (1 lsl l)) cap'
            else None
          in
          match found with Some _ -> found | None -> try_leaf (l + 1)
        end
      in
      try_leaf start
    end
  in
  Option.map
    (fun (chosen, s_mask, rem) ->
      let leaf l l2 = Search.materialize_leaf st ~leaf:infos.(l).leaf ~l2 in
      {
        Partition.pod;
        full_leaves = Array.map (fun l -> leaf l s_mask) (Mask.to_array chosen);
        rem_leaf = Option.map (fun (l, sr) -> leaf l sr) rem;
        spine_sets = [||];
      })
    (pick 0 0 0 (lnot 0))

(* A random pod 0: each node busy with probability [p_node], each leaf
   uplink claimed at a random bandwidth with probability [p_cable]. *)
let random_pod_state ~radix ~seed =
  let topo = Topology.of_radix radix in
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed in
  let p_node = Sim.Prng.float prng ~bound:0.6 in
  let p_cable = Sim.Prng.float prng ~bound:0.5 in
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  let job = ref 0 in
  for l = 0 to m2 - 1 do
    let leaf = Topology.leaf_of_coords topo ~pod:0 ~leaf:l in
    let first = Topology.leaf_first_node topo leaf in
    for slot = 0 to m1 - 1 do
      if Sim.Prng.float prng ~bound:1.0 < p_node then begin
        incr job;
        State.claim_exn st (Alloc.nodes_only ~job:!job ~size:1 [| first + slot |])
      end;
      if Sim.Prng.float prng ~bound:1.0 < p_cable then begin
        incr job;
        let bw = if Sim.Prng.int_in prng ~lo:0 ~hi:1 = 0 then 0.5 else 1.0 in
        State.claim_exn st
          {
            Alloc.job = !job;
            size = 0;
            nodes = [||];
            leaf_cables = [| Topology.leaf_l2_cable topo ~leaf ~l2_index:slot |];
            l2_cables = [||];
            bw;
          }
      end
    done
  done;
  (st, prng)

let gen_bound_case =
  QCheck2.Gen.(
    triple (oneofl [ 8; 12 ]) (oneofl [ 1.0; 0.5 ]) (int_range 0 1_000_000))

let print_bound_case (radix, demand, seed) =
  Printf.sprintf "radix %d demand %.1f seed %d" radix demand seed

let prop_find_all_matches_reference =
  QCheck2.Test.make ~name:"pruned find_all == unpruned, within its budget"
    ~count:200 ~print:print_bound_case gen_bound_case
    (fun (radix, demand, seed) ->
      let st, prng = random_pod_state ~radix ~seed in
      let m = radix / 2 in
      let n_l = Sim.Prng.int_in prng ~lo:1 ~hi:m in
      let l_t = Sim.Prng.int_in prng ~lo:1 ~hi:m in
      let budget = ref 1_000_000 and ref_budget = ref 1_000_000 in
      let got = find_all st ~pod:0 ~l_t ~n_l ~demand ~budget in
      let want = ref_find_all st ~pod:0 ~l_t ~n_l ~demand ~budget:ref_budget in
      got = want && !budget >= !ref_budget)

let prop_find_two_level_matches_reference =
  QCheck2.Test.make ~name:"pruned find_two_level == unpruned" ~count:200
    ~print:print_bound_case gen_bound_case
    (fun (radix, demand, seed) ->
      let st, prng = random_pod_state ~radix ~seed in
      let m = radix / 2 in
      let n_l = Sim.Prng.int_in prng ~lo:1 ~hi:m in
      let n_rl = Sim.Prng.int_in prng ~lo:0 ~hi:(n_l - 1) in
      let l_t =
        Sim.Prng.int_in prng ~lo:1 ~hi:(if n_rl > 0 then m - 1 else m)
      in
      let shape = { Shapes.n_l; l_t; n_rl } in
      Search.find_two_level st ~job:0 ~pod:0 ~shape ~demand
      = ref_find_two_level st ~pod:0 ~shape ~demand)

let test_find_all_radix48_bounded () =
  (* One solution (all 24 leaves); unpruned, the index-order walk visits
     every subset of the 24 leaves on the way. *)
  let st = State.create (Topology.of_radix 48) in
  let budget = ref 100 in
  let sols = find_all st ~pod:0 ~l_t:24 ~n_l:24 ~demand:1.0 ~budget in
  Alcotest.(check int) "one solution" 1 (List.length sols);
  Alcotest.(check int) "every leaf" (Mask.full 24) (List.hd sols).leaf_mask;
  Alcotest.(check bool) "budget left" true (!budget > 0)

(* ------------------------------------------------------------------ *)
(* iter_all: one walk with per-solution step costs and an early stop.  *)
(* ------------------------------------------------------------------ *)

let gen_walk_case =
  QCheck2.Gen.(pair gen_bound_case (int_range 1 5_000))

let print_walk_case (case, budget) =
  Printf.sprintf "%s budget %d" (print_bound_case case) budget

let walk_shape (radix, _, _) prng =
  let m = radix / 2 in
  let n_l = Sim.Prng.int_in prng ~lo:1 ~hi:m in
  let l_t = Sim.Prng.int_in prng ~lo:1 ~hi:m in
  (n_l, l_t)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let prop_iter_all_matches_reference =
  QCheck2.Test.make ~name:"iter_all never stopping == unpruned, per-step charged"
    ~count:200 ~print:print_walk_case gen_walk_case
    (fun (((radix, demand, seed) as case), b) ->
      let st, prng = random_pod_state ~radix ~seed in
      let n_l, l_t = walk_shape case prng in
      let budget = ref b in
      let sols = ref [] and charged = ref 0 in
      let walk =
        Search.iter_all st ~pod:0 ~l_t ~n_l ~demand ~budget (fun s ~steps ->
            sols := s :: !sols;
            charged := !charged + steps;
            false)
      in
      let ref_budget = ref 1_000_000 in
      let want = ref_find_all st ~pod:0 ~l_t ~n_l ~demand ~budget:ref_budget in
      let got = List.rev !sols in
      match walk with
      | Search.Complete tail ->
          got = want
          && !charged + tail = b - !budget
          && b - !budget <= 1_000_000 - !ref_budget
      | Cut -> !budget = 0 && is_prefix got want
      | Stopped -> false)

let prop_iter_all_stop_charges_prefix =
  QCheck2.Test.make ~name:"iter_all stopped after k solutions charges their steps"
    ~count:200
    ~print:(fun (case, k) -> Printf.sprintf "%s k %d" (print_bound_case case) k)
    QCheck2.Gen.(pair gen_bound_case (int_range 1 8))
    (fun (((radix, demand, seed) as case), k) ->
      let st, prng = random_pod_state ~radix ~seed in
      let n_l, l_t = walk_shape case prng in
      let b = 1_000_000 in
      let budget = ref b and seen = ref 0 and charged = ref 0 in
      let walk =
        Search.iter_all st ~pod:0 ~l_t ~n_l ~demand ~budget (fun _ ~steps ->
            incr seen;
            charged := !charged + steps;
            !seen = k)
      in
      match walk with
      | Stopped -> !seen = k && b - !budget = !charged
      | Complete tail -> !seen < k && b - !budget = !charged + tail
      | Cut -> false)

let test_iter_all_radix48_first_fit () =
  (* 8 of the 24 fully free leaves of a radix-48 pod: the first set is
     found one step per level down the walk, but there are C(24,8) =
     735471 sets to list. *)
  let st = State.create (Topology.of_radix 48) in
  let budget = ref Least_constrained.default_budget in
  let first = ref None in
  let walk =
    Search.iter_all st ~pod:0 ~l_t:8 ~n_l:24 ~demand:1.0 ~budget
      (fun s ~steps ->
        first := Some (s, steps);
        true)
  in
  Alcotest.(check bool) "stopped" true (walk = Search.Stopped);
  (match !first with
  | Some (s, steps) ->
      Alcotest.(check int) "steps to the first set" 9 steps;
      Alcotest.(check int) "lowest eight leaves" (Mask.full 8) s.leaf_mask
  | None -> Alcotest.fail "no solution");
  Alcotest.(check int) "charged" (Least_constrained.default_budget - 9) !budget;
  let budget = ref Least_constrained.default_budget in
  let walk =
    Search.iter_all st ~pod:0 ~l_t:8 ~n_l:24 ~demand:1.0 ~budget
      (fun _ ~steps:_ -> false)
  in
  Alcotest.(check bool) "listing every set is cut" true (walk = Search.Cut);
  Alcotest.(check int) "budget spent" 0 !budget

let suite =
  [
    Alcotest.test_case "fresh pod infos" `Quick test_pod_leaf_infos_fresh;
    Alcotest.test_case "pod infos track claims" `Quick test_pod_leaf_infos_after_claims;
    Alcotest.test_case "two-level with remainder" `Quick test_find_two_level_simple;
    Alcotest.test_case "two-level backtracks over leaves" `Quick test_find_two_level_backtracks;
    Alcotest.test_case "two-level infeasible" `Quick test_find_two_level_infeasible;
    Alcotest.test_case "find_all enumerates combinations" `Quick test_find_all_enumerates;
    Alcotest.test_case "find_all respects budget" `Quick test_find_all_budget;
    Alcotest.test_case "fractional demand honoured" `Quick test_fractional_demand_search;
    Alcotest.test_case "materialize_leaf picks free slots" `Quick test_materialize_leaf;
    Alcotest.test_case "find_all radix-48 pod within 100 steps" `Quick
      test_find_all_radix48_bounded;
    QCheck_alcotest.to_alcotest prop_find_all_matches_reference;
    QCheck_alcotest.to_alcotest prop_find_two_level_matches_reference;
    Alcotest.test_case "iter_all radix-48 first fit in 9 steps" `Quick
      test_iter_all_radix48_first_fit;
    QCheck_alcotest.to_alcotest prop_iter_all_matches_reference;
    QCheck_alcotest.to_alcotest prop_iter_all_stop_charges_prefix;
  ]
