(* [Fattree.State]'s claim, release and unrelease walk an allocation in
   per-leaf (and per-L2) runs.  This suite keeps the per-node code they
   replaced as a reference model and checks the two agree, bit for bit,
   on every observable after random histories of shuffled allocations;
   it also pins the release error paths and the fault overlay that a
   state allocates on its first fault. *)

open Fattree

let eps = 1e-9

(* ------------------------------------------------------------------ *)
(* Reference model: the per-node, per-cable bookkeeping, one resource  *)
(* at a time through the range-checked [Topology] accessors.           *)
(* ------------------------------------------------------------------ *)

module Ref = struct
  type t = {
    topo : Topology.t;
    free : bool array;
    claimed : bool array;
    free_per_leaf : int array;
    slot_mask : int array;
    leaf_up : float array;
    l2_up : float array;
    leaf_full_mask : int array;
    l2_full_mask : int array;
    pod_free_leaves : int array;
    node_fail : int array;
    leaf_cable_fail : int array;
    l2_cable_fail : int array;
    pod_node_gen : int array;
    mutable failed_nodes : int;
    mutable failed_claimed : int;
    mutable busy : int;
    mutable undo : (Alloc.t * float array) list;
  }

  let create topo =
    let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
    let nn = Topology.num_nodes topo and nl = Topology.num_leaves topo in
    {
      topo;
      free = Array.make nn true;
      claimed = Array.make nn false;
      free_per_leaf = Array.make nl m1;
      slot_mask = Array.make nl ((1 lsl m1) - 1);
      leaf_up = Array.make (Topology.num_leaf_l2_cables topo) 1.0;
      l2_up = Array.make (Topology.num_l2_spine_cables topo) 1.0;
      leaf_full_mask = Array.make nl ((1 lsl m1) - 1);
      l2_full_mask = Array.make (Topology.num_l2 topo) ((1 lsl m2) - 1);
      pod_free_leaves = Array.make (Topology.pods topo) m2;
      node_fail = Array.make nn 0;
      leaf_cable_fail = Array.make (Topology.num_leaf_l2_cables topo) 0;
      l2_cable_fail = Array.make (Topology.num_l2_spine_cables topo) 0;
      pod_node_gen = Array.make (Topology.pods topo) 0;
      failed_nodes = 0;
      failed_claimed = 0;
      busy = 0;
      undo = [];
    }

  let leaf_fully_free t leaf =
    let m1 = Topology.m1 t.topo in
    t.free_per_leaf.(leaf) = m1 && t.leaf_full_mask.(leaf) = (1 lsl m1) - 1

  let pod_delta t leaf was =
    let now = leaf_fully_free t leaf in
    if was <> now then begin
      let pod = Topology.leaf_pod t.topo leaf in
      t.pod_free_leaves.(pod) <- t.pod_free_leaves.(pod) + if now then 1 else -1
    end

  let bump_pod_node t leaf =
    let pod = Topology.leaf_pod t.topo leaf in
    t.pod_node_gen.(pod) <- t.pod_node_gen.(pod) + 1

  let take_node t n =
    let leaf = Topology.node_leaf t.topo n in
    let was = leaf_fully_free t leaf in
    t.free.(n) <- false;
    t.free_per_leaf.(leaf) <- t.free_per_leaf.(leaf) - 1;
    t.slot_mask.(leaf) <-
      t.slot_mask.(leaf) land lnot (1 lsl Topology.node_slot t.topo n);
    pod_delta t leaf was;
    bump_pod_node t leaf

  let give_node t n =
    let leaf = Topology.node_leaf t.topo n in
    let was = leaf_fully_free t leaf in
    t.free.(n) <- true;
    t.free_per_leaf.(leaf) <- t.free_per_leaf.(leaf) + 1;
    t.slot_mask.(leaf) <-
      t.slot_mask.(leaf) lor (1 lsl Topology.node_slot t.topo n);
    pod_delta t leaf was;
    bump_pod_node t leaf

  let set_leaf_up t c v =
    let leaf = Topology.leaf_l2_cable_leaf t.topo c in
    let was = leaf_fully_free t leaf in
    t.leaf_up.(c) <- v;
    let bit = 1 lsl Topology.leaf_l2_cable_l2_index t.topo c in
    if v >= 1.0 -. eps && t.leaf_cable_fail.(c) = 0 then
      t.leaf_full_mask.(leaf) <- t.leaf_full_mask.(leaf) lor bit
    else t.leaf_full_mask.(leaf) <- t.leaf_full_mask.(leaf) land lnot bit;
    pod_delta t leaf was;
    bump_pod_node t leaf

  let set_l2_up t c v =
    let l2 = Topology.l2_spine_cable_l2 t.topo c in
    t.l2_up.(c) <- v;
    let bit = 1 lsl Topology.l2_spine_cable_spine_index t.topo c in
    if v >= 1.0 -. eps && t.l2_cable_fail.(c) = 0 then
      t.l2_full_mask.(l2) <- t.l2_full_mask.(l2) lor bit
    else t.l2_full_mask.(l2) <- t.l2_full_mask.(l2) land lnot bit

  let claim t (a : Alloc.t) =
    Array.iter
      (fun n ->
        take_node t n;
        t.claimed.(n) <- true)
      a.nodes;
    Array.iter (fun c -> set_leaf_up t c (t.leaf_up.(c) -. a.bw)) a.leaf_cables;
    Array.iter (fun c -> set_l2_up t c (t.l2_up.(c) -. a.bw)) a.l2_cables;
    t.busy <- t.busy + Array.length a.nodes;
    t.undo <- []

  let describe_node t n =
    match (t.claimed.(n), t.node_fail.(n) > 0) with
    | true, true -> "failed while claimed"
    | true, false -> "claimed"
    | false, true -> "failed"
    | false, false -> "free"

  let describe_cable up fail c =
    if fail.(c) > 0 then Printf.sprintf "failed (%.3f claimed-free)" up.(c)
    else Printf.sprintf "%.3f remaining" up.(c)

  let release t (a : Alloc.t) =
    Array.iter
      (fun n ->
        if not t.claimed.(n) then
          invalid_arg
            (Printf.sprintf "State.release: node %d is not claimed (%s)" n
               (describe_node t n)))
      a.nodes;
    Array.iter
      (fun c ->
        if t.leaf_up.(c) +. a.bw > 1.0 +. eps then
          invalid_arg
            (Printf.sprintf
               "State.release: leaf cable %d over-released by demand %g (%s)" c
               a.bw
               (describe_cable t.leaf_up t.leaf_cable_fail c)))
      a.leaf_cables;
    Array.iter
      (fun c ->
        if t.l2_up.(c) +. a.bw > 1.0 +. eps then
          invalid_arg
            (Printf.sprintf
               "State.release: l2 cable %d over-released by demand %g (%s)" c
               a.bw
               (describe_cable t.l2_up t.l2_cable_fail c)))
      a.l2_cables;
    let nl = Array.length a.leaf_cables in
    let saved =
      Array.init (nl + Array.length a.l2_cables) (fun i ->
          if i < nl then t.leaf_up.(a.leaf_cables.(i))
          else t.l2_up.(a.l2_cables.(i - nl)))
    in
    t.undo <- (a, saved) :: t.undo;
    Array.iter
      (fun n ->
        t.claimed.(n) <- false;
        if t.node_fail.(n) = 0 then give_node t n
        else t.failed_claimed <- t.failed_claimed - 1)
      a.nodes;
    Array.iter
      (fun c -> set_leaf_up t c (Float.min 1.0 (t.leaf_up.(c) +. a.bw)))
      a.leaf_cables;
    Array.iter
      (fun c -> set_l2_up t c (Float.min 1.0 (t.l2_up.(c) +. a.bw)))
      a.l2_cables;
    t.busy <- t.busy - Array.length a.nodes

  let unrelease t (a : Alloc.t) =
    match t.undo with
    | (a', saved) :: rest when a' == a ->
        t.undo <- rest;
        Array.iter
          (fun n ->
            t.claimed.(n) <- true;
            if t.node_fail.(n) = 0 then take_node t n
            else t.failed_claimed <- t.failed_claimed + 1)
          a.nodes;
        let nl = Array.length a.leaf_cables in
        Array.iteri (fun i c -> set_leaf_up t c saved.(i)) a.leaf_cables;
        Array.iteri (fun i c -> set_l2_up t c saved.(nl + i)) a.l2_cables;
        t.busy <- t.busy + Array.length a.nodes
    | _ -> invalid_arg "Ref.unrelease"

  let fail_node t n =
    let c = t.node_fail.(n) in
    t.node_fail.(n) <- c + 1;
    if c = 0 then begin
      t.failed_nodes <- t.failed_nodes + 1;
      if t.claimed.(n) then t.failed_claimed <- t.failed_claimed + 1
      else take_node t n
    end

  let repair_node t n =
    let c = t.node_fail.(n) in
    t.node_fail.(n) <- c - 1;
    if c = 1 then begin
      t.failed_nodes <- t.failed_nodes - 1;
      if t.claimed.(n) then t.failed_claimed <- t.failed_claimed - 1
      else give_node t n
    end

  let leaf_cable_fault t c ~delta =
    let k = t.leaf_cable_fail.(c) in
    t.leaf_cable_fail.(c) <- k + delta;
    if (delta > 0 && k = 0) || (delta < 0 && k = 1) then begin
      let leaf = Topology.leaf_l2_cable_leaf t.topo c in
      let was = leaf_fully_free t leaf in
      let bit = 1 lsl Topology.leaf_l2_cable_l2_index t.topo c in
      if delta > 0 then
        t.leaf_full_mask.(leaf) <- t.leaf_full_mask.(leaf) land lnot bit
      else if t.leaf_up.(c) >= 1.0 -. eps then
        t.leaf_full_mask.(leaf) <- t.leaf_full_mask.(leaf) lor bit;
      pod_delta t leaf was;
      bump_pod_node t leaf
    end

  let l2_cable_fault t c ~delta =
    let k = t.l2_cable_fail.(c) in
    t.l2_cable_fail.(c) <- k + delta;
    if (delta > 0 && k = 0) || (delta < 0 && k = 1) then begin
      let l2 = Topology.l2_spine_cable_l2 t.topo c in
      let bit = 1 lsl Topology.l2_spine_cable_spine_index t.topo c in
      if delta > 0 then t.l2_full_mask.(l2) <- t.l2_full_mask.(l2) land lnot bit
      else if t.l2_up.(c) >= 1.0 -. eps then
        t.l2_full_mask.(l2) <- t.l2_full_mask.(l2) lor bit
    end

  (* The same tuple as [Test_incremental.observables]. *)
  let observables t =
    let topo = t.topo in
    let bits x = Int64.bits_of_float x in
    let rem up fail c = if fail.(c) > 0 then 0.0 else up.(c) in
    ( List.init (Topology.num_nodes topo) (fun n ->
          (t.free.(n), t.claimed.(n), t.node_fail.(n) > 0)),
      List.init (Topology.num_leaves topo) (fun leaf ->
          ( t.free_per_leaf.(leaf),
            t.slot_mask.(leaf),
            t.leaf_full_mask.(leaf),
            leaf_fully_free t leaf )),
      List.init (Topology.num_l2 topo) (fun l2 -> t.l2_full_mask.(l2)),
      ( List.init (Topology.num_leaf_l2_cables topo) (fun c ->
            bits (rem t.leaf_up t.leaf_cable_fail c)),
        List.init (Topology.num_l2_spine_cables topo) (fun c ->
            bits (rem t.l2_up t.l2_cable_fail c)) ),
      ( Topology.num_nodes topo - t.busy - (t.failed_nodes - t.failed_claimed),
        t.busy,
        t.failed_nodes,
        Array.to_list t.pod_free_leaves ) )
end

let observables = Test_incremental.observables

(* ------------------------------------------------------------------ *)
(* Random histories, both models in lockstep                           *)
(* ------------------------------------------------------------------ *)

type fault = Fnode of int | Fleaf_cable of int | Fl2_cable of int

(* What a history exercised, so a fixed-seed case can assert that the
   shapes the property is about actually occurred. *)
type coverage = {
  mutable split_leaf : int; (* claims with a leaf in non-adjacent runs *)
  mutable interleaved : int; (* claims with leaf cables of 2 leaves interleaved *)
  mutable fractional : int; (* claims at a non-dyadic demand *)
  mutable failed_released : int; (* releases of a node failed while claimed *)
  mutable unreleases : int;
}

(* Demands include non-dyadic fractions: their sums round, so an
   inexact inverse would show in the float bits. *)
let demands = [| 1.0; 0.1; 0.3; 0.7; 0.25 |]

let shuffle prng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Sim.Prng.int_in prng ~lo:0 ~hi:i in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Whether some group ([x / width]) occurs in two runs of [a]. *)
let group_split a ~width =
  let seen = Hashtbl.create 16 and split = ref false in
  Array.iteri
    (fun i x ->
      let g = x / width in
      if i > 0 && a.(i - 1) / width <> g && Hashtbl.mem seen g then split := true;
      Hashtbl.replace seen g ())
    a;
  !split

let pod_gens st =
  Array.init (Topology.pods (State.topo st)) (fun pod ->
      State.pod_node_generation st ~pod)

(* The pods whose node generation [f] moves, in [st] and in [r]. *)
let changed_pods st (r : Ref.t) f =
  let before_st = pod_gens st and before_r = Array.copy r.pod_node_gen in
  f ();
  let after_st = pod_gens st in
  let diff a b = List.filter (fun p -> a.(p) <> b.(p)) (List.init (Array.length a) Fun.id) in
  (diff before_st after_st, diff before_r r.pod_node_gen)

let run_history ~radix ~seed ~steps cov =
  let topo = Topology.of_radix radix in
  let st = State.create topo and r = Ref.create topo in
  let prng = Sim.Prng.create ~seed in
  let m1 = Topology.m1 topo in
  let live = ref [] and undoable = ref [] and faults = ref [] in
  let pick l = List.nth l (Sim.Prng.int_in prng ~lo:0 ~hi:(List.length l - 1)) in
  let drop x l = List.filter (fun y -> y != x) l in
  for step = 1 to steps do
    let roll = Sim.Prng.float prng ~bound:1.0 in
    let label, op =
      if roll < 0.35 then begin
        let size = Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes topo / 3) in
        let bw = demands.(Sim.Prng.int_in prng ~lo:0 ~hi:(Array.length demands - 1)) in
        let found =
          if bw = 1.0 then Jigsaw_core.Jigsaw.probe st ~job:step ~size
          else
            Jigsaw_core.Least_constrained.probe ~demand:bw st ~job:step ~size
        in
        match found with
        | Jigsaw_core.Partition.Infeasible | Exhausted -> ("no-op", ignore)
        | Found p ->
            let a = Jigsaw_core.Partition.to_alloc topo p ~bw in
            let a =
              {
                a with
                nodes = shuffle prng a.nodes;
                leaf_cables = shuffle prng a.leaf_cables;
                l2_cables = shuffle prng a.l2_cables;
              }
            in
            if group_split a.nodes ~width:m1 then cov.split_leaf <- cov.split_leaf + 1;
            if group_split a.leaf_cables ~width:m1 then
              cov.interleaved <- cov.interleaved + 1;
            if bw = 0.1 || bw = 0.3 || bw = 0.7 then
              cov.fractional <- cov.fractional + 1;
            let validate = step mod 2 = 0 in
            ( "claim",
              fun () ->
                State.claim_exn ~validate st a;
                Ref.claim r a;
                live := a :: !live;
                undoable := [] )
      end
      else if roll < 0.60 && !live <> [] then begin
        let a = pick !live in
        if Array.exists (fun n -> State.node_failed st n) a.nodes then
          cov.failed_released <- cov.failed_released + 1;
        ( "release",
          fun () ->
            State.release st a;
            Ref.release r a;
            live := drop a !live;
            undoable := a :: !undoable )
      end
      else if roll < 0.72 && !undoable <> [] then begin
        let a = List.hd !undoable in
        cov.unreleases <- cov.unreleases + 1;
        ( "unrelease",
          fun () ->
            State.unrelease st a;
            Ref.unrelease r a;
            undoable := List.tl !undoable;
            live := a :: !live )
      end
      else if roll < 0.88 then begin
        (* Half the node faults land on a claimed node. *)
        let f =
          match Sim.Prng.int_in prng ~lo:0 ~hi:3 with
          | 0 when !live <> [] ->
              let (a : Alloc.t) = pick !live in
              Fnode a.nodes.(Sim.Prng.int_in prng ~lo:0 ~hi:(Array.length a.nodes - 1))
          | 0 | 1 -> Fnode (Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.num_nodes topo - 1))
          | 2 ->
              Fleaf_cable
                (Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.num_leaf_l2_cables topo - 1))
          | _ ->
              Fl2_cable
                (Sim.Prng.int_in prng ~lo:0
                   ~hi:(Topology.num_l2_spine_cables topo - 1))
        in
        ( "fail",
          fun () ->
            (match f with
            | Fnode n ->
                State.fail_node st n;
                Ref.fail_node r n
            | Fleaf_cable c ->
                State.fail_leaf_cable st c;
                Ref.leaf_cable_fault r c ~delta:1
            | Fl2_cable c ->
                State.fail_l2_cable st c;
                Ref.l2_cable_fault r c ~delta:1);
            faults := f :: !faults )
      end
      else if !faults <> [] then begin
        let f = pick !faults in
        ( "repair",
          fun () ->
            (match f with
            | Fnode n ->
                State.repair_node st n;
                Ref.repair_node r n
            | Fleaf_cable c ->
                State.repair_leaf_cable st c;
                Ref.leaf_cable_fault r c ~delta:(-1)
            | Fl2_cable c ->
                State.repair_l2_cable st c;
                Ref.l2_cable_fault r c ~delta:(-1));
            faults := drop f !faults )
      end
      else ("no-op", ignore)
    in
    let st_pods, ref_pods = changed_pods st r op in
    if st_pods <> ref_pods then
      QCheck2.Test.fail_reportf "seed %d step %d (%s): pods touched [%s], reference [%s]"
        seed step label
        (String.concat ";" (List.map string_of_int st_pods))
        (String.concat ";" (List.map string_of_int ref_pods));
    if observables st <> Ref.observables r then
      QCheck2.Test.fail_reportf "seed %d step %d (%s): observables diverge" seed
        step label
  done;
  Test_incremental.check_summaries_consistent st

let new_coverage () =
  { split_leaf = 0; interleaved = 0; fractional = 0; failed_released = 0; unreleases = 0 }

let prop_runs_match_per_node =
  QCheck2.Test.make ~name:"per-leaf runs == per-node reference" ~count:25
    QCheck2.Gen.(pair (int_range 0 1_000_000) (oneofl [ 8; 12 ]))
    (fun (seed, radix) ->
      run_history ~radix ~seed ~steps:80 (new_coverage ());
      true)

(* The shapes the property is about do occur: leaves split across
   runs, interleaved cables of different leaves, non-dyadic demands,
   releases of nodes failed while claimed, and unreleases. *)
let test_history_coverage () =
  let cov = new_coverage () in
  List.iter
    (fun seed -> run_history ~radix:8 ~seed ~steps:120 cov)
    [ 1; 2; 3; 4; 5 ];
  List.iter
    (fun (name, n) -> Alcotest.(check bool) (name ^ " seen") true (n > 0))
    [
      ("split leaf", cov.split_leaf);
      ("interleaved leaf cables", cov.interleaved);
      ("fractional demand", cov.fractional);
      ("release of a failed-while-claimed node", cov.failed_released);
      ("unrelease", cov.unreleases);
    ]

(* ------------------------------------------------------------------ *)
(* Release error paths                                                 *)
(* ------------------------------------------------------------------ *)

let topo8 = Topology.of_radix 8

(* [bad] must raise the reference's message and leave the state as it
   was. *)
let check_release_rejected name st r (bad : Alloc.t) ~expect =
  let before = observables st in
  let message f = match f () with () -> None | exception Invalid_argument m -> Some m in
  Alcotest.(check (option string)) (name ^ ": reference message") (Some expect)
    (message (fun () -> Ref.release r bad));
  Alcotest.(check (option string)) (name ^ ": message") (Some expect)
    (message (fun () -> State.release st bad));
  Alcotest.(check bool) (name ^ ": state unchanged") true (observables st = before)

let claimed_pair () =
  let st = State.create topo8 and r = Ref.create topo8 in
  (* Leaf 0's slots 0, 1, 3 and leaf 1's slot 0 (m1 = 4); leaf cables
     0, 1, 3 and 4; L2 cables 0, 2 and 5, at a fractional demand. *)
  let a =
    {
      (Alloc.nodes_only ~job:1 ~size:4 [| 0; 1; 3; 4 |]) with
      leaf_cables = [| 0; 1; 3; 4 |];
      l2_cables = [| 0; 2; 5 |];
      bw = 0.3;
    }
  in
  State.claim_exn st a;
  Ref.claim r a;
  (st, r, a)

let test_release_unclaimed_mid_run () =
  let st, r, a = claimed_pair () in
  (* Node 2 is free and sits inside leaf 0's run 0, 1, 2, 3. *)
  check_release_rejected "unclaimed mid-run" st r
    { a with nodes = [| 4; 0; 1; 2; 3 |] }
    ~expect:"State.release: node 2 is not claimed (free)";
  (* The first offending node is named: the first of two in one run
     (leaf 1's 4, 5, 7, of which 5 and 7 are free), and the one in an
     earlier run than another. *)
  check_release_rejected "first of two in a run" st r
    { a with nodes = [| 0; 1; 4; 5; 7; 3 |] }
    ~expect:"State.release: node 5 is not claimed (free)";
  State.fail_node st 6;
  Ref.fail_node r 6;
  check_release_rejected "first offender" st r
    { a with nodes = [| 0; 1; 6; 3; 2 |] }
    ~expect:"State.release: node 6 is not claimed (failed)"

let test_release_over_released_leaf_cable () =
  let st, r, a = claimed_pair () in
  check_release_rejected "leaf cable" st r
    { a with leaf_cables = [| 0; 1; 2; 3 |] }
    ~expect:
      "State.release: leaf cable 2 over-released by demand 0.3 (1.000 \
       remaining)"

let test_release_over_released_l2_cable () =
  let st, r, a = claimed_pair () in
  check_release_rejected "l2 cable" st r
    { a with l2_cables = [| 0; 1; 2; 5 |] }
    ~expect:
      "State.release: l2 cable 1 over-released by demand 0.3 (1.000 \
       remaining)";
  (* After the rejections the real release still goes through. *)
  State.release st a;
  Ref.release r a;
  Alcotest.(check bool) "release after rejection" true
    (observables st = Ref.observables r)

(* ------------------------------------------------------------------ *)
(* The fault overlay, allocated on first fault                         *)
(* ------------------------------------------------------------------ *)

let faulted_state () =
  let st = State.create topo8 in
  State.claim_exn st
    {
      (Alloc.nodes_only ~job:1 ~size:3 [| 0; 5; 9 |]) with
      leaf_cables = [| 0; 5 |];
      l2_cables = [| 3 |];
      bw = 0.7;
    };
  State.fail_node st 5;
  State.fail_node st 20;
  State.fail_leaf_cable st 7;
  State.fail_l2_cable st 3;
  State.fail_l2_cable st 11;
  State.repair_l2_cable st 11;
  st

let clean_state () =
  let st = State.create topo8 in
  State.claim_exn st (Alloc.nodes_only ~job:2 ~size:2 [| 40; 41 |]);
  st

let test_overlay_copies () =
  let faulted = faulted_state () and clean = clean_state () in
  Alcotest.(check bool) "clone of a faulted state" true
    (observables (State.clone faulted) = observables faulted);
  Alcotest.(check bool) "clone of a never-faulted state" true
    (observables (State.clone clean) = observables clean);
  (* Faulted source into a destination that never had a fault. *)
  let dst = clean_state () in
  State.copy_into ~src:faulted ~dst;
  Alcotest.(check bool) "faulted -> never faulted" true
    (observables dst = observables faulted);
  (* And back: the destination drops its overlay with its faults. *)
  let dst = faulted_state () in
  State.copy_into ~src:clean ~dst;
  Alcotest.(check bool) "never faulted -> faulted" true
    (observables dst = observables clean);
  Alcotest.(check bool) "no failures left" false (State.has_failures dst);
  (* Both copies keep working as their sources would. *)
  let twin = clean_state () in
  List.iter
    (fun st ->
      State.fail_node st 41;
      State.fail_leaf_cable st 2;
      State.repair_leaf_cable st 2;
      State.release st (Alloc.nodes_only ~job:2 ~size:2 [| 40; 41 |]))
    [ dst; twin ];
  Alcotest.(check bool) "fault after copying a clean state" true
    (observables dst = observables twin);
  Alcotest.check_raises "repair with no fault ever"
    (Invalid_argument "State.repair_node: node 3 is not failed (free)")
    (fun () -> State.repair_node (State.create topo8) 3)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_runs_match_per_node;
    Alcotest.test_case "histories cover split runs" `Quick test_history_coverage;
    Alcotest.test_case "release: unclaimed node mid-run" `Quick
      test_release_unclaimed_mid_run;
    Alcotest.test_case "release: over-released leaf cable" `Quick
      test_release_over_released_leaf_cable;
    Alcotest.test_case "release: over-released l2 cable" `Quick
      test_release_over_released_l2_cable;
    Alcotest.test_case "overlay: clone and copy_into" `Quick test_overlay_copies;
  ]
