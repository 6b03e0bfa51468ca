let eps = 1e-9

(* Derived availability summaries are maintained incrementally on every
   claim/release so allocator probes never rescan the machine:

   - [slot_mask]:      per leaf, bitmask of free node slots;
   - [leaf_full_mask]: per leaf, bitmask of uplink indices whose cable is
                       at full capacity (remaining >= 1.0 - eps);
   - [l2_full_mask]:   per L2 switch, same for its spine uplinks;
   - [pod_free_leaves]: per pod, count of fully-free leaves (all nodes
                       free and all uplinks at full capacity).

   The float capacity arrays remain the source of truth; the masks cache
   exactly the predicate the demand-1.0 queries would recompute, so a
   cached answer is bit-identical to a from-scratch scan (the property
   test in test_incremental.ml checks this).

   Failures are a ref-counted overlay on top of the claim accounting: a
   resource with a positive failure count is withdrawn from every
   availability summary (so allocators avoid it through their normal
   mask/summary probes) but keeps its logical claim state, so a fault
   landing on claimed resources and the eventual release/repair compose
   in either order.  The counts make overlapping faults (a node failed
   both individually and via its leaf switch) repair correctly: the
   resource returns only when every covering fault is repaired. *)
(* Per-demand cached feasibility summaries (see [pod_candidates] /
   [pod_spine_masks] below).  One record per distinct bandwidth demand;
   the workload draws demands from a handful of classes, so the list
   stays tiny.  Staleness is tracked per pod against the pod generation
   counters: a mutation bumps the touched pod's generation, and the next
   consultation of that pod recomputes just that pod's row. *)
type feas = {
  f_demand : float;
  cand : int array array; (* pod -> counts over n = 1..m1 *)
  cand_gen : int array; (* pod -> pod_node_gen stamp; -1 = never *)
  spine : int array array; (* pod -> per-L2-index spine up-mask *)
  spine_gen : int array; (* pod -> pod_l2_gen stamp; -1 = never *)
}

type ext = ..

type counters = {
  claims : int;
  releases : int;
  failures : int;
  repairs : int;
  clones : int;
}

type t = {
  topo : Topology.t;
  free : Sim.Bitset.t; (* node id -> available (not claimed, not failed) *)
  claimed : Sim.Bitset.t; (* node id -> held by a live allocation *)
  nonempty_leaves : Sim.Bitset.t; (* leaf id -> >= 1 free node *)
  free_per_leaf : int array;
  slot_mask : int array; (* leaf -> bitmask of free slots *)
  leaf_up : float array; (* leaf-l2 cable -> remaining capacity *)
  l2_up : float array; (* l2-spine cable -> remaining capacity *)
  leaf_full_mask : int array; (* leaf -> full-capacity uplink indices *)
  l2_full_mask : int array; (* l2 -> full-capacity spine indices *)
  pod_free_leaves : int array; (* pod -> # fully-free leaves *)
  node_fail : int array; (* node -> # live faults covering it *)
  leaf_cable_fail : int array; (* leaf-l2 cable -> # live faults *)
  l2_cable_fail : int array; (* l2-spine cable -> # live faults *)
  pod_node_gen : int array; (* pod -> leaf-level availability mutations *)
  pod_l2_gen : int array; (* pod -> L2-spine availability mutations *)
  mutable failed_nodes : int; (* # nodes with node_fail > 0 *)
  mutable failed_claimed : int; (* # failed nodes also claimed *)
  mutable busy : int;
  mutable claims : int; (* # successful claims since creation *)
  mutable releases : int; (* # releases since creation *)
  mutable failures : int; (* # fail operations since creation *)
  mutable repairs : int; (* # repair operations since creation *)
  mutable clones : int; (* # clones taken of this state *)
  mutable feas_caches : feas list; (* per-demand candidate summaries *)
  mutable ext_cache : ext option; (* allocator-owned cache slot *)
  (* Releases [unrelease] may still undo, newest first, each with the
     claim-accounting capacities it overwrote (leaf cables, then L2
     cables).  A claim clears it: it may have reused those cables. *)
  mutable undo : (Alloc.t * float array) list;
}

let create topo =
  let free = Sim.Bitset.create (Topology.num_nodes topo) in
  Sim.Bitset.fill free;
  let nonempty_leaves = Sim.Bitset.create (Topology.num_leaves topo) in
  Sim.Bitset.fill nonempty_leaves;
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  {
    topo;
    free;
    claimed = Sim.Bitset.create (Topology.num_nodes topo);
    nonempty_leaves;
    free_per_leaf = Array.make (Topology.num_leaves topo) m1;
    slot_mask = Array.make (Topology.num_leaves topo) ((1 lsl m1) - 1);
    leaf_up = Array.make (Topology.num_leaf_l2_cables topo) 1.0;
    l2_up = Array.make (Topology.num_l2_spine_cables topo) 1.0;
    leaf_full_mask = Array.make (Topology.num_leaves topo) ((1 lsl m1) - 1);
    l2_full_mask = Array.make (Topology.num_l2 topo) ((1 lsl m2) - 1);
    pod_free_leaves = Array.make (Topology.pods topo) m2;
    node_fail = Array.make (Topology.num_nodes topo) 0;
    leaf_cable_fail = Array.make (Topology.num_leaf_l2_cables topo) 0;
    l2_cable_fail = Array.make (Topology.num_l2_spine_cables topo) 0;
    pod_node_gen = Array.make (Topology.pods topo) 0;
    pod_l2_gen = Array.make (Topology.pods topo) 0;
    failed_nodes = 0;
    failed_claimed = 0;
    busy = 0;
    claims = 0;
    releases = 0;
    failures = 0;
    repairs = 0;
    clones = 0;
    feas_caches = [];
    ext_cache = None;
    undo = [];
  }

let topo t = t.topo

let clone t =
  t.clones <- t.clones + 1;
  {
    topo = t.topo;
    free = Sim.Bitset.copy t.free;
    claimed = Sim.Bitset.copy t.claimed;
    nonempty_leaves = Sim.Bitset.copy t.nonempty_leaves;
    free_per_leaf = Array.copy t.free_per_leaf;
    slot_mask = Array.copy t.slot_mask;
    leaf_up = Array.copy t.leaf_up;
    l2_up = Array.copy t.l2_up;
    leaf_full_mask = Array.copy t.leaf_full_mask;
    l2_full_mask = Array.copy t.l2_full_mask;
    pod_free_leaves = Array.copy t.pod_free_leaves;
    node_fail = Array.copy t.node_fail;
    leaf_cable_fail = Array.copy t.leaf_cable_fail;
    l2_cable_fail = Array.copy t.l2_cable_fail;
    pod_node_gen = Array.copy t.pod_node_gen;
    pod_l2_gen = Array.copy t.pod_l2_gen;
    failed_nodes = t.failed_nodes;
    failed_claimed = t.failed_claimed;
    busy = t.busy;
    claims = t.claims;
    releases = t.releases;
    failures = t.failures;
    repairs = t.repairs;
    clones = 0;
    (* Caches stay with their state: the copy starts cold, so stamped
       entries can never validate against another state's counters. *)
    feas_caches = [];
    ext_cache = None;
    undo = [];
  }

(* Refresh [dst] to mirror [src] without allocating: the double-buffered
   scratch primitive behind zero-clone reservation search.  Blits every
   array, copies every scalar, and drops [dst]'s caches (their stamps
   would otherwise validate against [src]'s copied generation counters
   while the cached rows still describe [dst]'s previous contents).
   Deliberately does NOT count as a clone: the clone counter measures
   per-probe state duplication, which is exactly what this avoids. *)
let copy_into ~src ~dst =
  if
    src.topo != dst.topo
    && (Topology.m1 src.topo <> Topology.m1 dst.topo
       || Topology.m2 src.topo <> Topology.m2 dst.topo
       || Topology.m3 src.topo <> Topology.m3 dst.topo)
  then invalid_arg "State.copy_into: topology mismatch";
  Sim.Bitset.blit ~src:src.free ~dst:dst.free;
  Sim.Bitset.blit ~src:src.claimed ~dst:dst.claimed;
  Sim.Bitset.blit ~src:src.nonempty_leaves ~dst:dst.nonempty_leaves;
  let blit a b = Array.blit a 0 b 0 (Array.length a) in
  blit src.free_per_leaf dst.free_per_leaf;
  blit src.slot_mask dst.slot_mask;
  blit src.leaf_up dst.leaf_up;
  blit src.l2_up dst.l2_up;
  blit src.leaf_full_mask dst.leaf_full_mask;
  blit src.l2_full_mask dst.l2_full_mask;
  blit src.pod_free_leaves dst.pod_free_leaves;
  blit src.node_fail dst.node_fail;
  blit src.leaf_cable_fail dst.leaf_cable_fail;
  blit src.l2_cable_fail dst.l2_cable_fail;
  blit src.pod_node_gen dst.pod_node_gen;
  blit src.pod_l2_gen dst.pod_l2_gen;
  dst.failed_nodes <- src.failed_nodes;
  dst.failed_claimed <- src.failed_claimed;
  dst.busy <- src.busy;
  dst.claims <- src.claims;
  dst.releases <- src.releases;
  dst.failures <- src.failures;
  dst.repairs <- src.repairs;
  dst.feas_caches <- [];
  dst.ext_cache <- None;
  dst.undo <- []

let node_free t n = Sim.Bitset.mem t.free n
let node_claimed t n = Sim.Bitset.mem t.claimed n
let next_nonempty_leaf t ~from = Sim.Bitset.next_set_from t.nonempty_leaves from
let any_claimed_in t nodes = Sim.Bitset.intersects_array t.claimed nodes

(* Raw claim accounting, ignoring the failure overlay: a cable is
   "claimed" iff some live allocation holds part of it.  Exactly the
   question the fault path asks ("can this fault possibly kill a job?"),
   which [*_up_remaining] cannot answer once the fault is applied. *)
let leaf_cable_claimed t c = t.leaf_up.(c) < 1.0 -. eps
let l2_cable_claimed t c = t.l2_up.(c) < 1.0 -. eps
let node_failed t n = t.node_fail.(n) > 0
let leaf_cable_failed t c = t.leaf_cable_fail.(c) > 0
let l2_cable_failed t c = t.l2_cable_fail.(c) > 0
let free_nodes_on_leaf t l = t.free_per_leaf.(l)
let free_slot_mask t leaf = t.slot_mask.(leaf)

(* Remaining capacities are reported through the failure overlay: a
   failed cable has no usable capacity, whatever its claim accounting
   says. *)
let leaf_up_remaining t ~cable =
  if t.leaf_cable_fail.(cable) > 0 then 0.0 else t.leaf_up.(cable)

let l2_up_remaining t ~cable =
  if t.l2_cable_fail.(cable) > 0 then 0.0 else t.l2_up.(cable)

let leaf_up_mask t ~leaf ~demand =
  if demand = 1.0 then t.leaf_full_mask.(leaf)
  else begin
    let m1 = Topology.m1 t.topo in
    let mask = ref 0 in
    for i = 0 to m1 - 1 do
      let c = Topology.leaf_l2_cable t.topo ~leaf ~l2_index:i in
      if t.leaf_cable_fail.(c) = 0 && t.leaf_up.(c) >= demand -. eps then
        mask := !mask lor (1 lsl i)
    done;
    !mask
  end

let l2_up_mask t ~l2 ~demand =
  if demand = 1.0 then t.l2_full_mask.(l2)
  else begin
    let m2 = Topology.m2 t.topo in
    let mask = ref 0 in
    for j = 0 to m2 - 1 do
      let c = Topology.l2_spine_cable t.topo ~l2 ~spine_index:j in
      if t.l2_cable_fail.(c) = 0 && t.l2_up.(c) >= demand -. eps then
        mask := !mask lor (1 lsl j)
    done;
    !mask
  end

let leaf_fully_free t leaf =
  let m1 = Topology.m1 t.topo in
  t.free_per_leaf.(leaf) = m1 && t.leaf_full_mask.(leaf) = (1 lsl m1) - 1

let pod_fully_free_leaves t ~pod = t.pod_free_leaves.(pod)

(* Failures count as claims and repairs as releases for generation
   purposes: both pairs move resources in the same direction, which is
   exactly the monotonicity the no-fit memo layered above relies on. *)
let generation t = t.claims + t.releases + t.failures + t.repairs
let claim_generation t = t.claims + t.failures
let release_generation t = t.releases + t.repairs

let counters t : counters =
  {
    claims = t.claims;
    releases = t.releases;
    failures = t.failures;
    repairs = t.repairs;
    clones = t.clones;
  }

let restore_counters t (c : counters) =
  if c.claims < 0 || c.releases < 0 || c.failures < 0 || c.repairs < 0
     || c.clones < 0
  then invalid_arg "State.restore_counters: negative counter";
  t.claims <- c.claims;
  t.releases <- c.releases;
  t.failures <- c.failures;
  t.repairs <- c.repairs;
  t.clones <- c.clones

let failed_node_count t = t.failed_nodes
let healthy_node_count t = Topology.num_nodes t.topo - t.failed_nodes

(* Every repair operation retires exactly one live fault (repairing a
   non-failed resource raises), so the op counters double as a live-fault
   census covering nodes and both cable tiers. *)
let has_failures t = t.failures > t.repairs

let total_free_nodes t =
  Topology.num_nodes t.topo - t.busy - (t.failed_nodes - t.failed_claimed)

let busy_node_count t = t.busy

let node_utilization t =
  float_of_int t.busy /. float_of_int (Topology.num_nodes t.topo)

(* For error messages: the precise current state of a resource. *)
let describe_node t n =
  match (node_claimed t n, node_failed t n) with
  | true, true -> "failed while claimed"
  | true, false -> "claimed"
  | false, true -> "failed"
  | false, false -> "free"

let describe_leaf_cable t c =
  if leaf_cable_failed t c then Printf.sprintf "failed (%.3f claimed-free)" t.leaf_up.(c)
  else Printf.sprintf "%.3f remaining" t.leaf_up.(c)

let describe_l2_cable t c =
  if l2_cable_failed t c then Printf.sprintf "failed (%.3f claimed-free)" t.l2_up.(c)
  else Printf.sprintf "%.3f remaining" t.l2_up.(c)

(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                             *)
(* ------------------------------------------------------------------ *)

let pod_delta t leaf was =
  let now = leaf_fully_free t leaf in
  if was <> now then begin
    let pod = Topology.leaf_pod t.topo leaf in
    t.pod_free_leaves.(pod) <- t.pod_free_leaves.(pod) + (if now then 1 else -1)
  end

(* Generation bumps: every mutation that can change a pod's leaf-level
   availability (free counts, slot masks, leaf-uplink capacity or
   failure overlay) advances that pod's node generation; L2-spine
   capacity and failure changes advance the pod's L2 generation.  The
   cached summaries below validate per pod against these stamps. *)
let bump_pod_node t leaf =
  let pod = Topology.leaf_pod t.topo leaf in
  t.pod_node_gen.(pod) <- t.pod_node_gen.(pod) + 1

let bump_pod_l2 t l2 =
  let pod = Topology.l2_pod t.topo l2 in
  t.pod_l2_gen.(pod) <- t.pod_l2_gen.(pod) + 1

(* Withdraw / restore a node from the availability summaries.  Claim
   state is tracked separately ([claimed]): both claiming and failing a
   node take it, and it comes back only when neither applies. *)
let take_node t n =
  let leaf = Topology.node_leaf t.topo n in
  let was = leaf_fully_free t leaf in
  Sim.Bitset.remove t.free n;
  t.free_per_leaf.(leaf) <- t.free_per_leaf.(leaf) - 1;
  if t.free_per_leaf.(leaf) = 0 then Sim.Bitset.remove t.nonempty_leaves leaf;
  t.slot_mask.(leaf) <- t.slot_mask.(leaf) land lnot (1 lsl Topology.node_slot t.topo n);
  pod_delta t leaf was;
  bump_pod_node t leaf

let give_node t n =
  let leaf = Topology.node_leaf t.topo n in
  let was = leaf_fully_free t leaf in
  Sim.Bitset.add t.free n;
  t.free_per_leaf.(leaf) <- t.free_per_leaf.(leaf) + 1;
  if t.free_per_leaf.(leaf) = 1 then Sim.Bitset.add t.nonempty_leaves leaf;
  t.slot_mask.(leaf) <- t.slot_mask.(leaf) lor (1 lsl Topology.node_slot t.topo n);
  pod_delta t leaf was;
  bump_pod_node t leaf

(* The full-capacity mask bit is the conjunction of the claim accounting
   (remaining >= 1.0) and the failure overlay (no live fault). *)
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
  else t.l2_full_mask.(l2) <- t.l2_full_mask.(l2) land lnot bit;
  bump_pod_l2 t l2

(* ------------------------------------------------------------------ *)
(* Claim / release                                                     *)
(* ------------------------------------------------------------------ *)

let no_dups arr =
  let module IS = Set.Make (Int) in
  let s = IS.of_list (Array.to_list arr) in
  IS.cardinal s = Array.length arr

let check_claim t (a : Alloc.t) =
  if a.bw <= 0.0 || a.bw > 1.0 +. eps then Error "bandwidth demand out of (0,1]"
  else if not (no_dups a.nodes) then Error "duplicate node in allocation"
  else if not (no_dups a.leaf_cables) then Error "duplicate leaf cable"
  else if not (no_dups a.l2_cables) then Error "duplicate l2 cable"
  else begin
    let bad = ref None in
    Array.iter
      (fun n ->
        if !bad = None && not (Sim.Bitset.mem t.free n) then
          bad :=
            Some (Printf.sprintf "node %d is not free (%s)" n (describe_node t n)))
      a.nodes;
    Array.iter
      (fun c ->
        if !bad = None && leaf_up_remaining t ~cable:c < a.bw -. eps then
          bad :=
            Some
              (Printf.sprintf "leaf cable %d lacks capacity for demand %g (%s)"
                 c a.bw (describe_leaf_cable t c)))
      a.leaf_cables;
    Array.iter
      (fun c ->
        if !bad = None && l2_up_remaining t ~cable:c < a.bw -. eps then
          bad :=
            Some
              (Printf.sprintf "l2 cable %d lacks capacity for demand %g (%s)" c
                 a.bw (describe_l2_cable t c)))
      a.l2_cables;
    match !bad with Some m -> Error m | None -> Ok ()
  end

let apply_claim t (a : Alloc.t) =
  Array.iter
    (fun n ->
      take_node t n;
      Sim.Bitset.add t.claimed n)
    a.nodes;
  Array.iter (fun c -> set_leaf_up t c (t.leaf_up.(c) -. a.bw)) a.leaf_cables;
  Array.iter (fun c -> set_l2_up t c (t.l2_up.(c) -. a.bw)) a.l2_cables;
  t.busy <- t.busy + Array.length a.nodes;
  t.claims <- t.claims + 1;
  t.undo <- []

(* The full claim validation is O(n log n) in the allocation size and
   dominated simulator hot loops; callers that have already proved the
   allocation legal (the simulator claims exactly what a pure probe on
   the same state proposed) pass ~validate:false.  JIGSAW_VALIDATE=1
   forces validation everywhere regardless.

   Evaluated eagerly at module init: [Lazy.force] is not domain-safe
   (concurrent forcing raises [Lazy.Undefined]), and the parallel sweep
   hits this flag from every worker domain. *)
let forced_validation = Sys.getenv_opt "JIGSAW_VALIDATE" = Some "1"

let claim ?(validate = true) t (a : Alloc.t) =
  if validate || forced_validation then
    match check_claim t a with
    | Error _ as e -> e
    | Ok () ->
        apply_claim t a;
        Ok ()
  else begin
    apply_claim t a;
    Ok ()
  end

let claim_exn ?validate t a =
  match claim ?validate t a with
  | Ok () -> ()
  | Error m -> invalid_arg ("State.claim_exn: " ^ m)

let release t (a : Alloc.t) =
  Array.iter
    (fun n ->
      if not (Sim.Bitset.mem t.claimed n) then
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
             a.bw (describe_leaf_cable t c)))
    a.leaf_cables;
  Array.iter
    (fun c ->
      if t.l2_up.(c) +. a.bw > 1.0 +. eps then
        invalid_arg
          (Printf.sprintf
             "State.release: l2 cable %d over-released by demand %g (%s)" c a.bw
             (describe_l2_cable t c)))
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
      Sim.Bitset.remove t.claimed n;
      (* A node failed while claimed stays withdrawn; it returns to the
         free summaries only on repair. *)
      if t.node_fail.(n) = 0 then give_node t n
      else t.failed_claimed <- t.failed_claimed - 1)
    a.nodes;
  Array.iter
    (fun c -> set_leaf_up t c (Float.min 1.0 (t.leaf_up.(c) +. a.bw)))
    a.leaf_cables;
  Array.iter
    (fun c -> set_l2_up t c (Float.min 1.0 (t.l2_up.(c) +. a.bw)))
    a.l2_cables;
  t.busy <- t.busy - Array.length a.nodes;
  t.releases <- t.releases + 1

(* The exact inverse of [release], node for node: a failed node (failed
   before the release or since) is re-claimed without being withdrawn
   again, mirroring [release]'s own skip — [apply_claim] would withdraw
   it twice — and each cable gets back the very float it held, not
   [v +. bw -. bw], which rounds for fractional demands.  No
   [check_claim]: the LIFO check proves every resource is one this
   release handed back, and [check_claim] would reject a failed node. *)
let unrelease t (a : Alloc.t) =
  match t.undo with
  | (a', saved) :: rest when a' == a ->
      t.undo <- rest;
      Array.iter
        (fun n ->
          Sim.Bitset.add t.claimed n;
          if t.node_fail.(n) = 0 then take_node t n
          else t.failed_claimed <- t.failed_claimed + 1)
        a.nodes;
      let nl = Array.length a.leaf_cables in
      Array.iteri (fun i c -> set_leaf_up t c saved.(i)) a.leaf_cables;
      Array.iteri (fun i c -> set_l2_up t c saved.(nl + i)) a.l2_cables;
      t.busy <- t.busy + Array.length a.nodes;
      t.claims <- t.claims + 1
  | _ ->
      invalid_arg
        "State.unrelease: not the latest release still undoable (a claim \
         or a later release intervened)"

(* ------------------------------------------------------------------ *)
(* Fail / repair                                                       *)
(* ------------------------------------------------------------------ *)

let fail_node t n =
  let c = t.node_fail.(n) in
  t.node_fail.(n) <- c + 1;
  if c = 0 then begin
    t.failed_nodes <- t.failed_nodes + 1;
    if Sim.Bitset.mem t.claimed n then t.failed_claimed <- t.failed_claimed + 1
    else take_node t n
  end;
  t.failures <- t.failures + 1

let repair_node t n =
  let c = t.node_fail.(n) in
  if c = 0 then
    invalid_arg
      (Printf.sprintf "State.repair_node: node %d is not failed (%s)" n
         (describe_node t n));
  t.node_fail.(n) <- c - 1;
  if c = 1 then begin
    t.failed_nodes <- t.failed_nodes - 1;
    if Sim.Bitset.mem t.claimed n then t.failed_claimed <- t.failed_claimed - 1
    else give_node t n
  end;
  t.repairs <- t.repairs + 1

let fail_leaf_cable t c =
  let k = t.leaf_cable_fail.(c) in
  t.leaf_cable_fail.(c) <- k + 1;
  if k = 0 then begin
    let leaf = Topology.leaf_l2_cable_leaf t.topo c in
    let was = leaf_fully_free t leaf in
    let bit = 1 lsl Topology.leaf_l2_cable_l2_index t.topo c in
    t.leaf_full_mask.(leaf) <- t.leaf_full_mask.(leaf) land lnot bit;
    pod_delta t leaf was;
    bump_pod_node t leaf
  end;
  t.failures <- t.failures + 1

let repair_leaf_cable t c =
  let k = t.leaf_cable_fail.(c) in
  if k = 0 then
    invalid_arg
      (Printf.sprintf "State.repair_leaf_cable: cable %d is not failed (%s)" c
         (describe_leaf_cable t c));
  t.leaf_cable_fail.(c) <- k - 1;
  if k = 1 then begin
    let leaf = Topology.leaf_l2_cable_leaf t.topo c in
    let was = leaf_fully_free t leaf in
    if t.leaf_up.(c) >= 1.0 -. eps then begin
      let bit = 1 lsl Topology.leaf_l2_cable_l2_index t.topo c in
      t.leaf_full_mask.(leaf) <- t.leaf_full_mask.(leaf) lor bit
    end;
    pod_delta t leaf was;
    bump_pod_node t leaf
  end;
  t.repairs <- t.repairs + 1

let fail_l2_cable t c =
  let k = t.l2_cable_fail.(c) in
  t.l2_cable_fail.(c) <- k + 1;
  if k = 0 then begin
    let l2 = Topology.l2_spine_cable_l2 t.topo c in
    let bit = 1 lsl Topology.l2_spine_cable_spine_index t.topo c in
    t.l2_full_mask.(l2) <- t.l2_full_mask.(l2) land lnot bit;
    bump_pod_l2 t l2
  end;
  t.failures <- t.failures + 1

let repair_l2_cable t c =
  let k = t.l2_cable_fail.(c) in
  if k = 0 then
    invalid_arg
      (Printf.sprintf "State.repair_l2_cable: cable %d is not failed (%s)" c
         (describe_l2_cable t c));
  t.l2_cable_fail.(c) <- k - 1;
  if k = 1 then begin
    let l2 = Topology.l2_spine_cable_l2 t.topo c in
    if t.l2_up.(c) >= 1.0 -. eps then begin
      let bit = 1 lsl Topology.l2_spine_cable_spine_index t.topo c in
      t.l2_full_mask.(l2) <- t.l2_full_mask.(l2) lor bit
    end;
    (* Even without the full-capacity bit, sub-1.0 demand masks change
       the moment the last covering fault clears. *)
    bump_pod_l2 t l2
  end;
  t.repairs <- t.repairs + 1

(* ------------------------------------------------------------------ *)
(* Cached per-pod feasibility summaries                                 *)
(* ------------------------------------------------------------------ *)

let pod_node_generation t ~pod = t.pod_node_gen.(pod)

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let feas_for t demand =
  let rec find = function
    | f :: rest -> if f.f_demand = demand then Some f else find rest
    | [] -> None
  in
  match find t.feas_caches with
  | Some f -> f
  | None ->
      let pods = Topology.pods t.topo in
      let m1 = Topology.m1 t.topo in
      let f =
        {
          f_demand = demand;
          cand = Array.init pods (fun _ -> Array.make m1 0);
          cand_gen = Array.make pods (-1);
          spine = Array.init pods (fun _ -> Array.make m1 0);
          spine_gen = Array.make pods (-1);
        }
      in
      t.feas_caches <- f :: t.feas_caches;
      f

let pod_candidates t ~pod ~demand =
  let f = feas_for t demand in
  let gen = t.pod_node_gen.(pod) in
  let counts = f.cand.(pod) in
  if f.cand_gen.(pod) <> gen then begin
    (* counts.(n-1) = number of leaves in the pod able to carry n nodes
       at this demand (free nodes AND uplink-capable indices both >= n).
       Built as a histogram over each leaf's capacity followed by a
       suffix sum — O(m2 + m1) per refresh instead of O(m2 * m1). *)
    let m1 = Topology.m1 t.topo and m2 = Topology.m2 t.topo in
    Array.fill counts 0 m1 0;
    for l = 0 to m2 - 1 do
      let leaf = Topology.leaf_of_coords t.topo ~pod ~leaf:l in
      let free = t.free_per_leaf.(leaf) in
      let cap = popcount (leaf_up_mask t ~leaf ~demand) in
      let upto = Stdlib.min (Stdlib.min free cap) m1 in
      if upto > 0 then counts.(upto - 1) <- counts.(upto - 1) + 1
    done;
    let acc = ref 0 in
    for n = m1 - 1 downto 0 do
      acc := !acc + counts.(n);
      counts.(n) <- !acc
    done;
    f.cand_gen.(pod) <- gen
  end;
  counts

let pod_spine_masks t ~pod ~demand =
  let f = feas_for t demand in
  let gen = t.pod_l2_gen.(pod) in
  let masks = f.spine.(pod) in
  if f.spine_gen.(pod) <> gen then begin
    let m1 = Topology.m1 t.topo in
    for i = 0 to m1 - 1 do
      let l2 = Topology.l2_of_coords t.topo ~pod ~index:i in
      masks.(i) <- l2_up_mask t ~l2 ~demand
    done;
    f.spine_gen.(pod) <- gen
  end;
  masks

let get_ext t = t.ext_cache
let set_ext t e = t.ext_cache <- e
