(* Fault-injection layer: State fail/repair semantics, the Trace.Faults
   component model, and the interleaving property tests of the
   robustness milestone. *)

open Fattree

let topo8 () = Topology.of_radix 8

(* ------------------------------------------------------------------ *)
(* State-level fail/repair                                             *)
(* ------------------------------------------------------------------ *)

let test_fail_free_node () =
  let st = State.create (topo8 ()) in
  let n = Topology.num_nodes (State.topo st) in
  State.fail_node st 3;
  Alcotest.(check bool) "not free" false (State.node_free st 3);
  Alcotest.(check bool) "failed" true (State.node_failed st 3);
  Alcotest.(check int) "total free" (n - 1) (State.total_free_nodes st);
  Alcotest.(check int) "failed count" 1 (State.failed_node_count st);
  Alcotest.(check int) "healthy" (n - 1) (State.healthy_node_count st);
  Alcotest.(check int) "slot mask lost bit"
    ((1 lsl Topology.m1 (State.topo st)) - 1 - (1 lsl 3))
    (State.free_slot_mask st 0);
  (* Generations: failure counts as a claim, repair as a release. *)
  Alcotest.(check int) "claim side" 1 (State.claim_generation st);
  Alcotest.(check int) "release side" 0 (State.release_generation st);
  State.repair_node st 3;
  Alcotest.(check bool) "free again" true (State.node_free st 3);
  Alcotest.(check int) "all free" n (State.total_free_nodes st);
  Alcotest.(check int) "repair bumped release side" 1
    (State.release_generation st);
  (* Repairing a healthy node is a caller bug. *)
  Alcotest.check_raises "repair healthy"
    (Invalid_argument "State.repair_node: node 3 is not failed (free)")
    (fun () -> State.repair_node st 3)

let test_fail_claimed_node () =
  let st = State.create (topo8 ()) in
  let n = Topology.num_nodes (State.topo st) in
  let a = Alloc.nodes_only ~job:1 ~size:2 [| 4; 5 |] in
  State.claim_exn st a;
  State.fail_node st 4;
  Alcotest.(check bool) "still claimed" true (State.node_claimed st 4);
  Alcotest.(check int) "busy unchanged" 2 (State.busy_node_count st);
  Alcotest.(check int) "free excludes claimed and failed" (n - 2)
    (State.total_free_nodes st);
  (* Release with a failed node: healthy nodes return, the failed one
     stays withdrawn until repaired. *)
  State.release st a;
  Alcotest.(check bool) "healthy node returned" true (State.node_free st 5);
  Alcotest.(check bool) "failed node withheld" false (State.node_free st 4);
  Alcotest.(check int) "one node missing" (n - 1) (State.total_free_nodes st);
  State.repair_node st 4;
  Alcotest.(check int) "machine whole again" n (State.total_free_nodes st)

let test_repair_before_release () =
  (* The overlays unwind in either order: repair while still claimed
     keeps the node busy; the later release frees it. *)
  let st = State.create (topo8 ()) in
  let n = Topology.num_nodes (State.topo st) in
  let a = Alloc.nodes_only ~job:1 ~size:1 [| 7 |] in
  State.claim_exn st a;
  State.fail_node st 7;
  State.repair_node st 7;
  Alcotest.(check bool) "still claimed, not free" false (State.node_free st 7);
  Alcotest.(check int) "busy" 1 (State.busy_node_count st);
  State.release st a;
  Alcotest.(check bool) "free after release" true (State.node_free st 7);
  Alcotest.(check int) "all free" n (State.total_free_nodes st)

let test_overlapping_faults_refcount () =
  (* A node failed both individually and via its whole leaf switch comes
     back only when both faults are repaired. *)
  let st = State.create (topo8 ()) in
  State.fail_node st 2;
  Trace.Faults.apply st (Trace.Faults.Leaf_switch 0);
  Trace.Faults.revert st (Trace.Faults.Leaf_switch 0);
  Alcotest.(check bool) "still failed individually" true (State.node_failed st 2);
  Alcotest.(check bool) "leaf sibling recovered" true (State.node_free st 1);
  State.repair_node st 2;
  Alcotest.(check bool) "recovered" true (State.node_free st 2)

let test_cable_failure_masks () =
  let st = State.create (topo8 ()) in
  let m1 = Topology.m1 (State.topo st) in
  let full = (1 lsl m1) - 1 in
  State.fail_leaf_cable st 0;
  Alcotest.(check (float 0.0)) "no usable capacity" 0.0
    (State.leaf_up_remaining st ~cable:0);
  Alcotest.(check int) "full-capacity mask lost bit 0" (full - 1)
    (State.leaf_up_mask st ~leaf:0 ~demand:1.0);
  Alcotest.(check int) "fractional mask lost bit 0 too" (full - 1)
    (State.leaf_up_mask st ~leaf:0 ~demand:0.25);
  Alcotest.(check bool) "leaf no longer fully free" false
    (State.leaf_fully_free st 0);
  Alcotest.(check int) "pod count dropped"
    (Topology.m2 (State.topo st) - 1)
    (State.pod_fully_free_leaves st ~pod:0);
  State.repair_leaf_cable st 0;
  Alcotest.(check int) "mask restored" full
    (State.leaf_up_mask st ~leaf:0 ~demand:1.0);
  Alcotest.(check bool) "fully free again" true (State.leaf_fully_free st 0);
  State.fail_l2_cable st 5;
  Alcotest.(check (float 0.0)) "l2 capacity gone" 0.0
    (State.l2_up_remaining st ~cable:5);
  State.repair_l2_cable st 5;
  Alcotest.(check (float 0.0)) "l2 capacity back" 1.0
    (State.l2_up_remaining st ~cable:5)

let test_claim_rejects_failed_resources () =
  let st = State.create (topo8 ()) in
  State.fail_node st 1;
  (match State.claim st (Alloc.nodes_only ~job:1 ~size:2 [| 0; 1 |]) with
  | Error m ->
      Alcotest.(check string) "message names node and state"
        "node 1 is not free (failed)" m
  | Ok () -> Alcotest.fail "claim of a failed node must be rejected");
  State.repair_node st 1;
  let a =
    {
      Alloc.job = 2;
      size = 1;
      nodes = [| 2 |];
      leaf_cables = [| 3 |];
      l2_cables = [||];
      bw = 1.0;
    }
  in
  State.fail_leaf_cable st 3;
  (match State.claim st a with
  | Error m ->
      Alcotest.(check string) "message names cable and state"
        "leaf cable 3 lacks capacity for demand 1 (failed (1.000 claimed-free))"
        m
  | Ok () -> Alcotest.fail "claim over a failed cable must be rejected");
  (* Claimed-node error message carries the state too. *)
  State.claim_exn st (Alloc.nodes_only ~job:3 ~size:1 [| 0 |]);
  (match State.claim st (Alloc.nodes_only ~job:4 ~size:1 [| 0 |]) with
  | Error m ->
      Alcotest.(check string) "busy message" "node 0 is not free (claimed)" m
  | Ok () -> Alcotest.fail "double claim must be rejected");
  Alcotest.check_raises "release of unclaimed node names its state"
    (Invalid_argument "State.release: node 9 is not claimed (free)")
    (fun () -> State.release st (Alloc.nodes_only ~job:5 ~size:1 [| 9 |]))

(* ------------------------------------------------------------------ *)
(* Trace.Faults component model                                        *)
(* ------------------------------------------------------------------ *)

let test_target_resources () =
  let topo = topo8 () in
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  let sizes target =
    let n, lc, l2c = Trace.Faults.resources topo target in
    (Array.length n, Array.length lc, Array.length l2c)
  in
  Alcotest.(check (triple int int int)) "node" (1, 0, 0) (sizes (Node 0));
  Alcotest.(check (triple int int int)) "leaf cable" (0, 1, 0)
    (sizes (Leaf_cable 0));
  Alcotest.(check (triple int int int)) "l2 cable" (0, 0, 1)
    (sizes (L2_cable 0));
  Alcotest.(check (triple int int int)) "leaf switch" (m1, m1, 0)
    (sizes (Leaf_switch 2));
  Alcotest.(check (triple int int int)) "l2 switch" (0, m2, m2)
    (sizes (L2_switch 3));
  Alcotest.(check (triple int int int)) "spine" (0, 0, Topology.pods topo)
    (sizes (Spine 1));
  Alcotest.check_raises "bounds checked"
    (Invalid_argument "Faults.resources: node 4096 out of range") (fun () ->
      ignore (Trace.Faults.resources topo (Node 4096)))

let test_switch_failure_is_atomic_composite () =
  (* Failing an L2 switch cuts one uplink of every leaf in its pod and
     one cable of every spine in its group — and a repair undoes exactly
     that. *)
  let st = State.create (topo8 ()) in
  let topo = State.topo st in
  let m2 = Topology.m2 topo in
  let full_l2 = (1 lsl m2) - 1 in
  Trace.Faults.apply st (Trace.Faults.L2_switch 0);
  for leaf = 0 to m2 - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "pod-0 leaf %d lost uplink 0" leaf)
      true
      (State.leaf_up_mask st ~leaf ~demand:1.0 land 1 = 0)
  done;
  Alcotest.(check int) "spine-side cables cut" 0
    (State.l2_up_mask st ~l2:0 ~demand:1.0);
  Alcotest.(check int) "other pods untouched" full_l2
    (State.l2_up_mask st ~l2:(Topology.l2_per_pod topo) ~demand:1.0);
  Trace.Faults.revert st (Trace.Faults.L2_switch 0);
  Alcotest.(check int) "restored" full_l2 (State.l2_up_mask st ~l2:0 ~demand:1.0)

let test_generate_deterministic () =
  let topo = topo8 () in
  let gen seed =
    Trace.Faults.generate ~seed ~mtbf:5_000.0 ~mttr:500.0 ~horizon:20_000.0 topo
  in
  let a = Trace.Faults.events (gen 7) and b = Trace.Faults.events (gen 7) in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  Alcotest.(check bool) "different seed, different trace" true
    (a <> Trace.Faults.events (gen 8));
  Alcotest.(check bool) "non-trivial" true (Array.length a > 0);
  Array.iteri
    (fun i e ->
      if i > 0 then
        Alcotest.(check bool) "sorted by time" true
          (a.(i - 1).Trace.Faults.time <= e.Trace.Faults.time))
    a;
  (* Every fail has a matching later repair of the same target: applying
     the whole trace to a state must leave it fully healthy. *)
  let st = State.create topo in
  Array.iter
    (fun (e : Trace.Faults.event) ->
      match e.kind with
      | Fail -> Trace.Faults.apply st e.target
      | Repair -> Trace.Faults.revert st e.target)
    a;
  Alcotest.(check int) "fully repaired" 0 (State.failed_node_count st);
  Alcotest.(check int) "all nodes back" (Topology.num_nodes topo)
    (State.total_free_nodes st)

let test_scripted_file_roundtrip () =
  let path = Filename.temp_file "faults" ".txt" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# a comment\n\
         10.5 fail node 3\n\
         \n\
         12 fail leaf 1   # trailing comment\n\
         20.25 repair node 3\n\
         30 repair leaf 1\n");
  (match Trace.Faults.load path with
  | Error m -> Alcotest.fail m
  | Ok t ->
      let evs = Trace.Faults.events t in
      Alcotest.(check int) "four events" 4 (Array.length evs);
      Alcotest.(check bool) "first is node fail" true
        (evs.(0) = { Trace.Faults.time = 10.5; kind = Fail; target = Node 3 });
      Alcotest.(check bool) "second expands a leaf switch" true
        (evs.(1).target = Leaf_switch 1));
  Out_channel.with_open_text path (fun oc -> output_string oc "5 melt node 1\n");
  (match Trace.Faults.load path with
  | Error m ->
      Alcotest.(check bool) "parse error is located" true
        (String.length m > 0 && String.sub m 0 6 = "line 1")
  | Ok _ -> Alcotest.fail "bad verb must not parse");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Property: random claim/release/fail/repair interleavings             *)
(* ------------------------------------------------------------------ *)

let random_target prng topo =
  let pick bound = Sim.Prng.int prng ~bound in
  match pick 6 with
  | 0 -> Trace.Faults.Node (pick (Topology.num_nodes topo))
  | 1 -> Trace.Faults.Leaf_cable (pick (Topology.num_leaf_l2_cables topo))
  | 2 -> Trace.Faults.L2_cable (pick (Topology.num_l2_spine_cables topo))
  | 3 -> Trace.Faults.Leaf_switch (pick (Topology.num_leaves topo))
  | 4 -> Trace.Faults.L2_switch (pick (Topology.num_l2 topo))
  | _ -> Trace.Faults.Spine (pick (Topology.num_spines topo))

(* Drive a state through a random interleaving of the four mutations,
   mirroring every claim/release (but no fault) onto a shadow state.
   Checked invariants:
   - incremental summaries stay bit-identical to a from-scratch
     recomputation (via the scratch helpers of Test_incremental);
   - allocator probes never propose failed resources (validated claims
     would abort);
   - after repairing every outstanding fault, the state is
     resource-identical to the never-failed shadow. *)
let run_interleaving ~seed ~steps =
  let topo = topo8 () in
  let st = State.create topo and shadow = State.create topo in
  let prng = Sim.Prng.create ~seed in
  let live = ref [] and faults = ref [] in
  for id = 1 to steps do
    (match Sim.Prng.int prng ~bound:10 with
    | (0 | 1) when !live <> [] ->
        let k = Sim.Prng.int_in prng ~lo:0 ~hi:(List.length !live - 1) in
        let a = List.nth !live k in
        State.release st a;
        State.release shadow a;
        live := List.filteri (fun i _ -> i <> k) !live
    | 2 | 3 ->
        let t = random_target prng topo in
        Trace.Faults.apply st t;
        faults := t :: !faults
    | 4 when !faults <> [] ->
        let k = Sim.Prng.int_in prng ~lo:0 ~hi:(List.length !faults - 1) in
        Trace.Faults.revert st (List.nth !faults k);
        faults := List.filteri (fun i _ -> i <> k) !faults
    | _ -> (
        let size = Sim.Prng.int_in prng ~lo:1 ~hi:24 in
        let bw =
          match Sim.Prng.int prng ~bound:3 with
          | 0 -> 1.0
          | 1 -> 0.5
          | _ -> 0.25
        in
        let found =
          if bw = 1.0 then Jigsaw_core.Jigsaw.probe st ~job:id ~size
          else
            Jigsaw_core.Least_constrained.probe ~demand:bw st ~job:id ~size
        in
        match found with
        | Jigsaw_core.Partition.Found p ->
            let a = Jigsaw_core.Partition.to_alloc topo p ~bw in
            (* Validated claims: an allocator touching a failed resource
               aborts right here. *)
            State.claim_exn st a;
            State.claim_exn shadow a;
            live := a :: !live
        | Infeasible | Exhausted -> ()));
    if id mod 10 = 0 then Test_incremental.check_summaries_consistent st
  done;
  (* Repair everything still broken; st must now equal the shadow. *)
  List.iter (Trace.Faults.revert st) !faults;
  Test_incremental.check_summaries_consistent st;
  Alcotest.(check int) "no failed nodes left" 0 (State.failed_node_count st);
  for n = 0 to Topology.num_nodes topo - 1 do
    Alcotest.(check bool) (Printf.sprintf "node %d free" n)
      (State.node_free shadow n) (State.node_free st n);
    Alcotest.(check bool) (Printf.sprintf "node %d claimed" n)
      (State.node_claimed shadow n) (State.node_claimed st n)
  done;
  for c = 0 to Topology.num_leaf_l2_cables topo - 1 do
    Alcotest.(check (float 0.0)) (Printf.sprintf "leaf cable %d" c)
      (State.leaf_up_remaining shadow ~cable:c)
      (State.leaf_up_remaining st ~cable:c)
  done;
  for c = 0 to Topology.num_l2_spine_cables topo - 1 do
    Alcotest.(check (float 0.0)) (Printf.sprintf "l2 cable %d" c)
      (State.l2_up_remaining shadow ~cable:c)
      (State.l2_up_remaining st ~cable:c)
  done;
  for leaf = 0 to Topology.num_leaves topo - 1 do
    Alcotest.(check int) (Printf.sprintf "slot mask %d" leaf)
      (State.free_slot_mask shadow leaf) (State.free_slot_mask st leaf);
    Alcotest.(check int) (Printf.sprintf "leaf mask %d" leaf)
      (State.leaf_up_mask shadow ~leaf ~demand:1.0)
      (State.leaf_up_mask st ~leaf ~demand:1.0)
  done;
  for pod = 0 to Topology.pods topo - 1 do
    Alcotest.(check int) (Printf.sprintf "pod %d" pod)
      (State.pod_fully_free_leaves shadow ~pod)
      (State.pod_fully_free_leaves st ~pod)
  done;
  Alcotest.(check int) "total free" (State.total_free_nodes shadow)
    (State.total_free_nodes st);
  Alcotest.(check int) "busy" (State.busy_node_count shadow)
    (State.busy_node_count st)

let test_interleaving_property () =
  List.iter (fun seed -> run_interleaving ~seed ~steps:120) [ 3; 77; 2024 ]

let suite =
  [
    Alcotest.test_case "fail/repair a free node" `Quick test_fail_free_node;
    Alcotest.test_case "fail a claimed node, then release" `Quick
      test_fail_claimed_node;
    Alcotest.test_case "repair before release" `Quick test_repair_before_release;
    Alcotest.test_case "overlapping faults are ref-counted" `Quick
      test_overlapping_faults_refcount;
    Alcotest.test_case "cable failures update the masks" `Quick
      test_cable_failure_masks;
    Alcotest.test_case "claims reject failed resources by name" `Quick
      test_claim_rejects_failed_resources;
    Alcotest.test_case "target blast radii" `Quick test_target_resources;
    Alcotest.test_case "switch failure is a composite of its parts" `Quick
      test_switch_failure_is_atomic_composite;
    Alcotest.test_case "MTBF generation is deterministic and paired" `Quick
      test_generate_deterministic;
    Alcotest.test_case "scripted fault files round-trip" `Quick
      test_scripted_file_roundtrip;
    Alcotest.test_case "claim/release/fail/repair interleavings" `Quick
      test_interleaving_property;
  ]
