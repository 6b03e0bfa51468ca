let eps = 1e-9

(* Derived availability summaries are maintained incrementally on every
   claim/release so allocator probes never rescan the machine:

   - [slot_mask]:      per leaf, bitmask of free node slots (the free-node
                       set: a node is free iff its slot bit is set);
   - [claimed_mask]:   per leaf, bitmask of slots held by a live
                       allocation (failed-while-claimed ones included);
   - [leaf_full_mask]: per leaf, bitmask of uplink indices whose cable is
                       at full capacity (remaining >= 1.0 - eps);
   - [l2_full_mask]:   per L2 switch, same for its spine uplinks;
   - [pod_free_leaves]: per pod, count of fully-free leaves (all nodes
                       free and all uplinks at full capacity);
   - [free_pods_at]:   per k in [0, m2], the number of pods with at least
                       k fully-free leaves, moved by one entry whenever a
                       pod's [pod_free_leaves] count moves.

   The float capacity arrays remain the source of truth; the masks cache
   exactly the predicate the demand-1.0 queries would recompute, so a
   cached answer is bit-identical to a from-scratch scan (the property
   test in test_incremental.ml checks this).

   Claim, release and unrelease walk an allocation in runs: maximal
   stretches of consecutive entries on one leaf (nodes, leaf cables) or
   one L2 switch (L2 cables).  Each cable's float is updated on its own,
   by the same expression per cable, but the mask words, the fully-free
   transition, the pod count and the pod generation are updated once
   per run.  Input order does not matter for the result: a leaf whose
   entries are split across the array forms several runs, each one
   exact on its own (test_state_runs.ml checks this against the
   per-node reference on shuffled allocations).

   Failures are a ref-counted overlay on top of the claim accounting: a
   resource with a positive failure count is withdrawn from every
   availability summary (so allocators avoid it through their normal
   mask/summary probes) but keeps its logical claim state, so a fault
   landing on claimed resources and the eventual release/repair compose
   in either order.  The counts make overlapping faults (a node failed
   both individually and via its leaf switch) repair correctly: the
   resource returns only when every covering fault is repaired.  The
   overlay's three arrays are allocated by a state's first fault (or
   copied with a faulted state); until then every count is 0, and
   neither [create] nor [copy_into] pays for them. *)
(* Per-demand cached feasibility summaries (see [pod_candidates] /
   [pod_spine_masks] / [candidate_pods] / [leaf_up_masks] below).  One
   record per distinct bandwidth demand; the workload draws demands from
   a handful of classes, so the list stays tiny.  Staleness is tracked
   per pod against the pod generation counters: a mutation bumps the
   touched pod's generation, and the next consultation of that pod
   recomputes just that pod's row.  [hist] is the machine-wide sum of
   the cached [cand] rows, moved by each row's delta whenever the row is
   recomputed, so it always describes exactly the rows as cached.
   [copy_into] blits a source's records, stamps included, into the
   destination's: the stamps are checked against the generation
   counters it copies alongside. *)
type feas = {
  f_demand : float;
  cand : int array array; (* pod -> counts over n = 1..m1 *)
  cand_gen : int array; (* pod -> pod_node_gen stamp; -1 = never *)
  recount : int array; (* a recounted [cand] row, before its delta *)
  hist : int array array;
      (* n-1 -> k in [0, m2] -> # pods whose [cand] row has >= k at n *)
  mutable synced : int; (* [node_epoch] when every row was last current *)
  spine : int array array; (* pod -> per-L2-index spine up-mask *)
  spine_gen : int array; (* pod -> pod_l2_gen stamp; -1 = never *)
  up : int array; (* leaf -> uplink mask at [f_demand] *)
  up_gen : int array; (* pod -> pod_node_gen stamp of its [up] words *)
}

type counters = {
  claims : int;
  releases : int;
  failures : int;
  repairs : int;
  clones : int;
}

(* Per-resource counts of live faults. *)
type overlay = {
  node_fail : int array; (* node -> # live faults covering it *)
  leaf_cable_fail : int array; (* leaf-l2 cable -> # live faults *)
  l2_cable_fail : int array; (* l2-spine cable -> # live faults *)
}

type t = {
  topo : Topology.t;
  nonempty_leaves : Sim.Bitset.t; (* leaf id -> >= 1 free node *)
  free_per_leaf : int array;
  slot_mask : int array; (* leaf -> bitmask of free slots *)
  claimed_mask : int array; (* leaf -> bitmask of claimed slots *)
  leaf_up : float array; (* leaf-l2 cable -> remaining capacity *)
  l2_up : float array; (* l2-spine cable -> remaining capacity *)
  leaf_full_mask : int array; (* leaf -> full-capacity uplink indices *)
  l2_full_mask : int array; (* l2 -> full-capacity spine indices *)
  pod_free_leaves : int array; (* pod -> # fully-free leaves *)
  free_pods_at : int array; (* k -> # pods with >= k fully-free leaves *)
  mutable overlay : overlay option; (* None: no fault ever, all counts 0 *)
  pod_node_gen : int array; (* pod -> leaf-level availability mutations *)
  pod_l2_gen : int array; (* pod -> L2-spine availability mutations *)
  mutable node_epoch : int; (* sum of [pod_node_gen]: any pod's moved *)
  mutable failed_nodes : int; (* # nodes with a live fault *)
  mutable failed_claimed : int; (* # failed nodes also claimed *)
  mutable busy : int;
  mutable claims : int; (* # successful claims since creation *)
  mutable releases : int; (* # releases since creation *)
  mutable failures : int; (* # fail operations since creation *)
  mutable repairs : int; (* # repair operations since creation *)
  mutable clones : int; (* # clones taken of this state *)
  mutable feas_caches : feas list; (* per-demand candidate summaries *)
  (* Releases [unrelease] may still undo, newest first, each with the
     claim-accounting capacities it overwrote (leaf cables, then L2
     cables).  A claim clears it: it may have reused those cables. *)
  mutable undo : (Alloc.t * float array) list;
}

let create topo =
  let nleaves = Topology.num_leaves topo in
  let nonempty_leaves = Sim.Bitset.create nleaves in
  Sim.Bitset.fill nonempty_leaves;
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  {
    topo;
    nonempty_leaves;
    free_per_leaf = Array.make nleaves m1;
    slot_mask = Array.make nleaves ((1 lsl m1) - 1);
    claimed_mask = Array.make nleaves 0;
    leaf_up = Array.make (Topology.num_leaf_l2_cables topo) 1.0;
    l2_up = Array.make (Topology.num_l2_spine_cables topo) 1.0;
    leaf_full_mask = Array.make nleaves ((1 lsl m1) - 1);
    l2_full_mask = Array.make (Topology.num_l2 topo) ((1 lsl m2) - 1);
    pod_free_leaves = Array.make (Topology.pods topo) m2;
    free_pods_at = Array.make (m2 + 1) (Topology.pods topo);
    overlay = None;
    pod_node_gen = Array.make (Topology.pods topo) 0;
    pod_l2_gen = Array.make (Topology.pods topo) 0;
    node_epoch = 0;
    failed_nodes = 0;
    failed_claimed = 0;
    busy = 0;
    claims = 0;
    releases = 0;
    failures = 0;
    repairs = 0;
    clones = 0;
    feas_caches = [];
    undo = [];
  }

let topo t = t.topo

let copy_overlay o =
  {
    node_fail = Array.copy o.node_fail;
    leaf_cable_fail = Array.copy o.leaf_cable_fail;
    l2_cable_fail = Array.copy o.l2_cable_fail;
  }

let clone t =
  t.clones <- t.clones + 1;
  {
    topo = t.topo;
    nonempty_leaves = Sim.Bitset.copy t.nonempty_leaves;
    free_per_leaf = Array.copy t.free_per_leaf;
    slot_mask = Array.copy t.slot_mask;
    claimed_mask = Array.copy t.claimed_mask;
    leaf_up = Array.copy t.leaf_up;
    l2_up = Array.copy t.l2_up;
    leaf_full_mask = Array.copy t.leaf_full_mask;
    l2_full_mask = Array.copy t.l2_full_mask;
    pod_free_leaves = Array.copy t.pod_free_leaves;
    free_pods_at = Array.copy t.free_pods_at;
    overlay = Option.map copy_overlay t.overlay;
    pod_node_gen = Array.copy t.pod_node_gen;
    pod_l2_gen = Array.copy t.pod_l2_gen;
    node_epoch = t.node_epoch;
    failed_nodes = t.failed_nodes;
    failed_claimed = t.failed_claimed;
    busy = t.busy;
    claims = t.claims;
    releases = t.releases;
    failures = t.failures;
    repairs = t.repairs;
    clones = 0;
    (* The copy starts with no per-demand records, rebuilt on first
       read: a cold state that warm records can be checked against
       ([copy_into] carries them). *)
    feas_caches = [];
    undo = [];
  }

(* Copies an int array word by word: a plain store each, where
   [Array.blit] into a major-heap array runs the write barrier on every
   element. *)
let blit (a : int array) (b : int array) =
  for i = 0 to Array.length a - 1 do
    b.(i) <- a.(i)
  done

let blit_feas ~src ~dst =
  Array.iteri (fun pod row -> blit row dst.cand.(pod)) src.cand;
  blit src.cand_gen dst.cand_gen;
  Array.iteri (fun n h -> blit h dst.hist.(n)) src.hist;
  dst.synced <- src.synced;
  Array.iteri (fun pod row -> blit row dst.spine.(pod)) src.spine;
  blit src.spine_gen dst.spine_gen;
  blit src.up dst.up;
  blit src.up_gen dst.up_gen

let copy_feas f =
  {
    f with
    cand = Array.map Array.copy f.cand;
    cand_gen = Array.copy f.cand_gen;
    recount = Array.copy f.recount;
    hist = Array.map Array.copy f.hist;
    spine = Array.map Array.copy f.spine;
    spine_gen = Array.copy f.spine_gen;
    up = Array.copy f.up;
    up_gen = Array.copy f.up_gen;
  }

(* [dst]'s per-demand records become [src]'s, blitted into [dst]'s own
   record for each demand both have (in place, without allocating, when
   both lists hold the same demands in the same order), copied for a
   demand only [src] has, and dropped for one only [dst] has. *)
let copy_feas_caches ~src ~dst =
  let rec same_demands a b =
    match (a, b) with
    | f :: a, g :: b -> f.f_demand = g.f_demand && same_demands a b
    | [], [] -> true
    | _ -> false
  in
  if same_demands src.feas_caches dst.feas_caches then
    List.iter2 (fun f g -> blit_feas ~src:f ~dst:g) src.feas_caches
      dst.feas_caches
  else
    dst.feas_caches <-
      List.map
        (fun f ->
          match List.find_opt (fun g -> g.f_demand = f.f_demand) dst.feas_caches with
          | Some g ->
              blit_feas ~src:f ~dst:g;
              g
          | None -> copy_feas f)
        src.feas_caches

(* Refresh [dst] to mirror [src]: the double-buffered scratch primitive
   behind zero-clone reservation search.  Blits every array, copies
   every scalar, takes [src]'s per-demand feasibility records (rows and
   stamps alike: the stamps are checked against the generation counters
   copied with them, so a row current in [src] is current in [dst]).
   The fault overlay follows [src]: dropped when [src] never had a
   fault, blitted when both have one, and copied (an allocation) when
   only [src] has.  Deliberately does NOT count as a clone: the clone
   counter measures per-probe state duplication, which is exactly what
   this avoids. *)
let copy_into ~src ~dst =
  if
    src.topo != dst.topo
    && (Topology.m1 src.topo <> Topology.m1 dst.topo
       || Topology.m2 src.topo <> Topology.m2 dst.topo
       || Topology.m3 src.topo <> Topology.m3 dst.topo)
  then invalid_arg "State.copy_into: topology mismatch";
  Sim.Bitset.blit ~src:src.nonempty_leaves ~dst:dst.nonempty_leaves;
  blit src.free_per_leaf dst.free_per_leaf;
  blit src.slot_mask dst.slot_mask;
  blit src.claimed_mask dst.claimed_mask;
  Array.blit src.leaf_up 0 dst.leaf_up 0 (Array.length src.leaf_up);
  Array.blit src.l2_up 0 dst.l2_up 0 (Array.length src.l2_up);
  blit src.leaf_full_mask dst.leaf_full_mask;
  blit src.l2_full_mask dst.l2_full_mask;
  blit src.pod_free_leaves dst.pod_free_leaves;
  blit src.free_pods_at dst.free_pods_at;
  (match (src.overlay, dst.overlay) with
  | None, _ -> dst.overlay <- None
  | Some s, Some d ->
      blit s.node_fail d.node_fail;
      blit s.leaf_cable_fail d.leaf_cable_fail;
      blit s.l2_cable_fail d.l2_cable_fail
  | Some s, None -> dst.overlay <- Some (copy_overlay s));
  blit src.pod_node_gen dst.pod_node_gen;
  blit src.pod_l2_gen dst.pod_l2_gen;
  dst.node_epoch <- src.node_epoch;
  dst.failed_nodes <- src.failed_nodes;
  dst.failed_claimed <- src.failed_claimed;
  dst.busy <- src.busy;
  dst.claims <- src.claims;
  dst.releases <- src.releases;
  dst.failures <- src.failures;
  dst.repairs <- src.repairs;
  copy_feas_caches ~src ~dst;
  dst.undo <- []

let check what i bound =
  if i < 0 || i >= bound then
    invalid_arg (Printf.sprintf "State: %s %d out of range [0, %d)" what i bound)

let check_node t n = check "node" n (Topology.num_nodes t.topo)

(* Live-fault counts; 0 everywhere until the first fault.  The
   [*_fails] arrays are empty until then, so a hot loop tests
   [Array.length fails = 0 || fails.(c) = 0] with no call and no
   allocation. *)
let node_fails t n =
  match t.overlay with Some o -> o.node_fail.(n) | None -> 0

let leaf_fails t =
  match t.overlay with Some o -> o.leaf_cable_fail | None -> [||]

let l2_fails t =
  match t.overlay with Some o -> o.l2_cable_fail | None -> [||]

let leaf_cable_fails t c =
  let f = leaf_fails t in
  if Array.length f = 0 then 0 else f.(c)

let l2_cable_fails t c =
  let f = l2_fails t in
  if Array.length f = 0 then 0 else f.(c)

(* The overlay, allocated on first use by a fault. *)
let overlay t =
  match t.overlay with
  | Some o -> o
  | None ->
      let zeros n = Array.make n 0 in
      let o =
        {
          node_fail = zeros (Topology.num_nodes t.topo);
          leaf_cable_fail = zeros (Topology.num_leaf_l2_cables t.topo);
          l2_cable_fail = zeros (Topology.num_l2_spine_cables t.topo);
        }
      in
      t.overlay <- Some o;
      o

let slot_bit t n = 1 lsl (n mod Topology.m1 t.topo)

let node_free t n =
  check_node t n;
  t.slot_mask.(n / Topology.m1 t.topo) land slot_bit t n <> 0

let node_claimed t n =
  check_node t n;
  t.claimed_mask.(n / Topology.m1 t.topo) land slot_bit t n <> 0

let next_nonempty_leaf t ~from = Sim.Bitset.next_set_from t.nonempty_leaves from
let any_claimed_in t nodes = Array.exists (node_claimed t) nodes

(* Raw claim accounting, ignoring the failure overlay: a cable is
   "claimed" iff some live allocation holds part of it.  Exactly the
   question the fault path asks ("can this fault possibly kill a job?"),
   which [*_up_remaining] cannot answer once the fault is applied. *)
let leaf_cable_claimed t c = t.leaf_up.(c) < 1.0 -. eps
let l2_cable_claimed t c = t.l2_up.(c) < 1.0 -. eps

let node_failed t n =
  check_node t n;
  node_fails t n > 0

let leaf_cable_failed t c =
  check "leaf cable" c (Array.length t.leaf_up);
  leaf_cable_fails t c > 0

let l2_cable_failed t c =
  check "l2 cable" c (Array.length t.l2_up);
  l2_cable_fails t c > 0

let free_nodes_on_leaf t l = t.free_per_leaf.(l)
let free_slot_mask t leaf = t.slot_mask.(leaf)

(* Remaining capacities are reported through the failure overlay: a
   failed cable has no usable capacity, whatever its claim accounting
   says. *)
let leaf_up_remaining t ~cable =
  let v = t.leaf_up.(cable) in
  if leaf_cable_fails t cable > 0 then 0.0 else v

let l2_up_remaining t ~cable =
  let v = t.l2_up.(cable) in
  if l2_cable_fails t cable > 0 then 0.0 else v

(* Bitmask over the [width] uplink cables [first ..] of one switch that
   have no live fault and at least [demand] capacity left. *)
let up_mask ups fails ~first ~width ~demand =
  let mask = ref 0 in
  for i = 0 to width - 1 do
    let c = first + i in
    if (Array.length fails = 0 || fails.(c) = 0) && ups.(c) >= demand -. eps
    then mask := !mask lor (1 lsl i)
  done;
  !mask

let leaf_up_mask t ~leaf ~demand =
  if demand = 1.0 then t.leaf_full_mask.(leaf)
  else begin
    check "leaf" leaf (Array.length t.leaf_full_mask);
    let m1 = Topology.m1 t.topo in
    up_mask t.leaf_up (leaf_fails t) ~first:(leaf * m1) ~width:m1 ~demand
  end

let l2_up_mask t ~l2 ~demand =
  if demand = 1.0 then t.l2_full_mask.(l2)
  else begin
    check "l2" l2 (Array.length t.l2_full_mask);
    let m2 = Topology.m2 t.topo in
    up_mask t.l2_up (l2_fails t) ~first:(l2 * m2) ~width:m2 ~demand
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
(* Incremental maintenance, one leaf or L2 switch at a time            *)
(* ------------------------------------------------------------------ *)

(* Generation bumps: every mutation that can change a pod's leaf-level
   availability (free counts, slot masks, leaf-uplink capacity or
   failure overlay) advances that pod's node generation; L2-spine
   capacity and failure changes advance the pod's L2 generation.  The
   cached summaries below validate per pod against these stamps.

   [leaf_touched t leaf ~was] closes one update of [leaf]'s words:
   [was] is [leaf_fully_free] before it, so the pod's fully-free count
   moves by the transition, and with it the one entry of [free_pods_at]
   the pod enters or leaves; the pod's node generation and the state's
   node epoch advance. *)
let leaf_touched t leaf ~was =
  let pod = leaf / Topology.m2 t.topo in
  let now = leaf_fully_free t leaf in
  if was <> now then begin
    let c = t.pod_free_leaves.(pod) in
    if now then begin
      t.pod_free_leaves.(pod) <- c + 1;
      t.free_pods_at.(c + 1) <- t.free_pods_at.(c + 1) + 1
    end
    else begin
      t.pod_free_leaves.(pod) <- c - 1;
      t.free_pods_at.(c) <- t.free_pods_at.(c) - 1
    end
  end;
  t.pod_node_gen.(pod) <- t.pod_node_gen.(pod) + 1;
  t.node_epoch <- t.node_epoch + 1

let l2_touched t l2 =
  let pod = l2 / Topology.m1 t.topo in
  t.pod_l2_gen.(pod) <- t.pod_l2_gen.(pod) + 1

(* Withdraw / restore the [k] slots [bits] of [leaf] from the
   availability summaries.  Claim state is tracked separately
   ([claimed_mask]): both claiming and failing a node take it, and it
   comes back only when neither applies. *)
let take_slots t leaf bits k =
  let was = leaf_fully_free t leaf in
  t.slot_mask.(leaf) <- t.slot_mask.(leaf) land lnot bits;
  let free = t.free_per_leaf.(leaf) - k in
  t.free_per_leaf.(leaf) <- free;
  if free = 0 then Sim.Bitset.remove t.nonempty_leaves leaf;
  leaf_touched t leaf ~was

let give_slots t leaf bits k =
  let was = leaf_fully_free t leaf in
  t.slot_mask.(leaf) <- t.slot_mask.(leaf) lor bits;
  let free = t.free_per_leaf.(leaf) in
  t.free_per_leaf.(leaf) <- free + k;
  if free = 0 then Sim.Bitset.add t.nonempty_leaves leaf;
  leaf_touched t leaf ~was

let take_node t n =
  take_slots t (n / Topology.m1 t.topo) (slot_bit t n) 1

let give_node t n =
  give_slots t (n / Topology.m1 t.topo) (slot_bit t n) 1

(* [iter_runs ~what a ~width ~bound f] calls [f g lo hi bits] for every
   maximal run [a.(lo) .. a.(hi - 1)] of consecutive entries with the
   same quotient [g = a.(i) / width]: one leaf's nodes or leaf cables
   ([width] = m1), or one L2 switch's spine cables ([width] = m2).
   [bits] has bit [a.(i) - g * width] set for each entry of the run:
   its slots, or its uplink indices.  [bound] is the number of valid
   entries, a multiple of [width]; only the head of a run needs the
   range check, the rest lie within its group. *)
let iter_runs ~what a ~width ~bound f =
  let n = Array.length a in
  let i = ref 0 in
  while !i < n do
    let lo = !i in
    let x = a.(lo) in
    check what x bound;
    let g = x / width in
    let base = g * width in
    let bits = ref (1 lsl (x - base)) in
    let j = ref (lo + 1) and in_run = ref true in
    while !in_run && !j < n do
      let d = a.(!j) - base in
      if d >= 0 && d < width then begin
        bits := !bits lor (1 lsl d);
        incr j
      end
      else in_run := false
    done;
    f g lo !j !bits;
    i := !j
  done

(* Claim ([~claim:true]) or release the nodes [nodes], leaf by leaf:
   each run sets or clears its claimed bits and moves, in one
   [take_slots] / [give_slots], those of its nodes with no live fault.
   A node failed while claimed stays withdrawn: a release leaves it to
   the repair, and a re-claim (only [unrelease] hands a failed node
   in) does not withdraw it twice.  The overlay is matched once per
   run, not per node, so a fault-free state pays nothing for it. *)
let mark_nodes t nodes ~claim =
  let m1 = Topology.m1 t.topo in
  let move = if claim then take_slots else give_slots in
  let failed_delta = if claim then 1 else -1 in
  iter_runs ~what:"node" nodes ~width:m1 ~bound:(Topology.num_nodes t.topo)
    (fun leaf lo hi bits ->
      let claimed = t.claimed_mask.(leaf) in
      t.claimed_mask.(leaf) <-
        (if claim then claimed lor bits else claimed land lnot bits);
      match t.overlay with
      | None -> move t leaf bits (hi - lo)
      | Some o ->
          let base = leaf * m1 in
          let healthy = ref 0 and k = ref 0 in
          for i = lo to hi - 1 do
            let n = nodes.(i) in
            if o.node_fail.(n) = 0 then begin
              healthy := !healthy lor (1 lsl (n - base));
              incr k
            end
            else t.failed_claimed <- t.failed_claimed + failed_delta
          done;
          if !k > 0 then move t leaf !healthy !k)

(* The full-capacity bits of the run [cables.(lo) .. cables.(hi - 1)]
   of the switch whose first cable is [base]: the conjunction of the
   claim accounting (remaining >= 1.0) and the failure overlay (no live
   fault). *)
let full_bits ups fails cables lo hi base =
  let mask = ref 0 in
  for i = lo to hi - 1 do
    let c = cables.(i) in
    if ups.(c) >= 1.0 -. eps && (Array.length fails = 0 || fails.(c) = 0) then
      mask := !mask lor (1 lsl (c - base))
  done;
  !mask

(* Re-derive the full-capacity mask words of the cables [cables] from
   their already updated floats, one word per leaf / L2 run.  The words
   still hold their pre-update values, so [leaf_fully_free] read first
   is the "before" of the fully-free transition. *)
let refresh_leaf_cables t cables =
  let m1 = Topology.m1 t.topo in
  let fails = leaf_fails t in
  iter_runs ~what:"leaf cable" cables ~width:m1 ~bound:(Array.length t.leaf_up)
    (fun leaf lo hi bits ->
      let was = leaf_fully_free t leaf in
      let full = full_bits t.leaf_up fails cables lo hi (leaf * m1) in
      t.leaf_full_mask.(leaf) <- t.leaf_full_mask.(leaf) land lnot bits lor full;
      leaf_touched t leaf ~was)

let refresh_l2_cables t cables =
  let m2 = Topology.m2 t.topo in
  let fails = l2_fails t in
  iter_runs ~what:"l2 cable" cables ~width:m2 ~bound:(Array.length t.l2_up)
    (fun l2 lo hi bits ->
      let full = full_bits t.l2_up fails cables lo hi (l2 * m2) in
      t.l2_full_mask.(l2) <- t.l2_full_mask.(l2) land lnot bits lor full;
      l2_touched t l2)

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
        if !bad = None && not (node_free t n) then
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
  mark_nodes t a.nodes ~claim:true;
  let bw = a.bw in
  let cs = a.leaf_cables in
  for i = 0 to Array.length cs - 1 do
    let c = cs.(i) in
    t.leaf_up.(c) <- t.leaf_up.(c) -. bw
  done;
  refresh_leaf_cables t cs;
  let cs = a.l2_cables in
  for i = 0 to Array.length cs - 1 do
    let c = cs.(i) in
    t.l2_up.(c) <- t.l2_up.(c) -. bw
  done;
  refresh_l2_cables t cs;
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

(* Legality first, nothing mutated until it passes: one mask test per
   leaf run for the nodes (naming the run's first unclaimed node, which
   is the allocation's first, since every earlier run passed), then one
   capacity test per cable, which also saves the floats [unrelease]
   will restore.  Each released float is [min 1.0 (v +. bw)], written
   as a comparison: the same value for every [v], without a call. *)
let release t (a : Alloc.t) =
  let m1 = Topology.m1 t.topo in
  iter_runs ~what:"node" a.nodes ~width:m1 ~bound:(Topology.num_nodes t.topo)
    (fun leaf lo _hi bits ->
      let claimed = t.claimed_mask.(leaf) and base = leaf * m1 in
      if claimed land bits <> bits then begin
        let i = ref lo in
        while claimed land (1 lsl (a.nodes.(!i) - base)) <> 0 do
          incr i
        done;
        let n = a.nodes.(!i) in
        invalid_arg
          (Printf.sprintf "State.release: node %d is not claimed (%s)" n
             (describe_node t n))
      end);
  let bw = a.bw and lcs = a.leaf_cables and l2cs = a.l2_cables in
  let nl = Array.length lcs in
  let saved = Array.create_float (nl + Array.length l2cs) in
  for i = 0 to nl - 1 do
    let c = lcs.(i) in
    let v = t.leaf_up.(c) in
    if v +. bw > 1.0 +. eps then
      invalid_arg
        (Printf.sprintf
           "State.release: leaf cable %d over-released by demand %g (%s)" c bw
           (describe_leaf_cable t c));
    saved.(i) <- v
  done;
  for i = 0 to Array.length l2cs - 1 do
    let c = l2cs.(i) in
    let v = t.l2_up.(c) in
    if v +. bw > 1.0 +. eps then
      invalid_arg
        (Printf.sprintf
           "State.release: l2 cable %d over-released by demand %g (%s)" c bw
           (describe_l2_cable t c));
    saved.(nl + i) <- v
  done;
  t.undo <- (a, saved) :: t.undo;
  mark_nodes t a.nodes ~claim:false;
  for i = 0 to nl - 1 do
    let c = lcs.(i) in
    let v = t.leaf_up.(c) +. bw in
    t.leaf_up.(c) <- (if v > 1.0 then 1.0 else v)
  done;
  refresh_leaf_cables t lcs;
  for i = 0 to Array.length l2cs - 1 do
    let c = l2cs.(i) in
    let v = t.l2_up.(c) +. bw in
    t.l2_up.(c) <- (if v > 1.0 then 1.0 else v)
  done;
  refresh_l2_cables t l2cs;
  t.busy <- t.busy - Array.length a.nodes;
  t.releases <- t.releases + 1

(* The exact inverse of [release], node for node: a failed node (failed
   before the release or since) is re-claimed without being withdrawn
   again, mirroring [release]'s own skip, and each cable gets back the
   very float it held, not [v +. bw -. bw], which rounds for fractional
   demands.  No [check_claim]: the LIFO check proves every resource is
   one this release handed back, and [check_claim] would reject a
   failed node. *)
let unrelease t (a : Alloc.t) =
  match t.undo with
  | (a', saved) :: rest when a' == a ->
      t.undo <- rest;
      mark_nodes t a.nodes ~claim:true;
      let lcs = a.leaf_cables and l2cs = a.l2_cables in
      let nl = Array.length lcs in
      for i = 0 to nl - 1 do
        t.leaf_up.(lcs.(i)) <- saved.(i)
      done;
      refresh_leaf_cables t lcs;
      for i = 0 to Array.length l2cs - 1 do
        t.l2_up.(l2cs.(i)) <- saved.(nl + i)
      done;
      refresh_l2_cables t l2cs;
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
  check_node t n;
  let o = overlay t in
  let c = o.node_fail.(n) in
  o.node_fail.(n) <- c + 1;
  if c = 0 then begin
    t.failed_nodes <- t.failed_nodes + 1;
    if node_claimed t n then t.failed_claimed <- t.failed_claimed + 1
    else take_node t n
  end;
  t.failures <- t.failures + 1

let repair_node t n =
  check_node t n;
  let c = node_fails t n in
  if c = 0 then
    invalid_arg
      (Printf.sprintf "State.repair_node: node %d is not failed (%s)" n
         (describe_node t n));
  let o = overlay t in
  o.node_fail.(n) <- c - 1;
  if c = 1 then begin
    t.failed_nodes <- t.failed_nodes - 1;
    if node_claimed t n then t.failed_claimed <- t.failed_claimed - 1
    else give_node t n
  end;
  t.repairs <- t.repairs + 1

(* Set or clear the full-capacity bit of leaf cable [c] after its fault
   count moved. *)
let leaf_cable_fault_changed t c ~usable =
  let m1 = Topology.m1 t.topo in
  let leaf = c / m1 in
  let was = leaf_fully_free t leaf in
  let bit = 1 lsl (c mod m1) in
  if usable then t.leaf_full_mask.(leaf) <- t.leaf_full_mask.(leaf) lor bit
  else t.leaf_full_mask.(leaf) <- t.leaf_full_mask.(leaf) land lnot bit;
  leaf_touched t leaf ~was

let l2_cable_fault_changed t c ~usable =
  let m2 = Topology.m2 t.topo in
  let l2 = c / m2 in
  let bit = 1 lsl (c mod m2) in
  if usable then t.l2_full_mask.(l2) <- t.l2_full_mask.(l2) lor bit
  else t.l2_full_mask.(l2) <- t.l2_full_mask.(l2) land lnot bit;
  (* Even without the full-capacity bit, sub-1.0 demand masks change
     the moment the last covering fault clears. *)
  l2_touched t l2

let fail_leaf_cable t c =
  let o = overlay t in
  let k = o.leaf_cable_fail.(c) in
  o.leaf_cable_fail.(c) <- k + 1;
  if k = 0 then leaf_cable_fault_changed t c ~usable:false;
  t.failures <- t.failures + 1

let repair_leaf_cable t c =
  if not (leaf_cable_failed t c) then
    invalid_arg
      (Printf.sprintf "State.repair_leaf_cable: cable %d is not failed (%s)" c
         (describe_leaf_cable t c));
  let o = overlay t in
  let k = o.leaf_cable_fail.(c) in
  o.leaf_cable_fail.(c) <- k - 1;
  if k = 1 then
    leaf_cable_fault_changed t c ~usable:(t.leaf_up.(c) >= 1.0 -. eps);
  t.repairs <- t.repairs + 1

let fail_l2_cable t c =
  let o = overlay t in
  let k = o.l2_cable_fail.(c) in
  o.l2_cable_fail.(c) <- k + 1;
  if k = 0 then l2_cable_fault_changed t c ~usable:false;
  t.failures <- t.failures + 1

let repair_l2_cable t c =
  if not (l2_cable_failed t c) then
    invalid_arg
      (Printf.sprintf "State.repair_l2_cable: cable %d is not failed (%s)" c
         (describe_l2_cable t c));
  let o = overlay t in
  let k = o.l2_cable_fail.(c) in
  o.l2_cable_fail.(c) <- k - 1;
  if k = 1 then l2_cable_fault_changed t c ~usable:(t.l2_up.(c) >= 1.0 -. eps);
  t.repairs <- t.repairs + 1

(* ------------------------------------------------------------------ *)
(* Cached per-pod feasibility summaries                                 *)
(* ------------------------------------------------------------------ *)

let pod_node_generation t ~pod = t.pod_node_gen.(pod)

let feas_for t demand =
  let rec find = function
    | f :: rest -> if f.f_demand = demand then Some f else find rest
    | [] -> None
  in
  match find t.feas_caches with
  | Some f -> f
  | None ->
      let pods = Topology.pods t.topo in
      let m1 = Topology.m1 t.topo and m2 = Topology.m2 t.topo in
      (* Every row starts at zero, which the histogram counts at k = 0
         only. *)
      let hist =
        Array.init m1 (fun _ ->
            let h = Array.make (m2 + 1) 0 in
            h.(0) <- pods;
            h)
      in
      let f =
        {
          f_demand = demand;
          cand = Array.init pods (fun _ -> Array.make m1 0);
          cand_gen = Array.make pods (-1);
          recount = Array.make m1 0;
          hist;
          synced = -1;
          spine = Array.init pods (fun _ -> Array.make m1 0);
          spine_gen = Array.make pods (-1);
          (* Demand 1.0 reads [leaf_full_mask] in place of a row. *)
          up =
            (if demand = 1.0 then [||]
             else Array.make (Topology.num_leaves t.topo) 0);
          up_gen = Array.make pods (-1);
        }
      in
      t.feas_caches <- f :: t.feas_caches;
      f

(* [leaf_up_mask t ~leaf ~demand], reading the floats of only the
   cables missing from [leaf]'s full-capacity mask: a full-capacity
   cable carries any demand up to 1.0, so those bits stand as they are,
   and a leaf whose uplinks are all at full capacity reads no float. *)
let leaf_up_bits t ~leaf ~demand =
  let m1 = Topology.m1 t.topo in
  let full = if demand <= 1.0 then t.leaf_full_mask.(leaf) else 0 in
  let missing = ((1 lsl m1) - 1) land lnot full in
  if missing = 0 then full
  else begin
    let fails = leaf_fails t and first = leaf * m1 in
    let mask = ref full in
    for i = 0 to m1 - 1 do
      let c = first + i in
      if
        missing land (1 lsl i) <> 0
        && (Array.length fails = 0 || fails.(c) = 0)
        && t.leaf_up.(c) >= demand -. eps
      then mask := !mask lor (1 lsl i)
    done;
    !mask
  end

(* [into.(n-1)] = number of leaves in [pod] able to carry n nodes at
   [demand] (free nodes AND uplink-capable indices both >= n).  Built as
   a histogram over each leaf's capacity followed by a suffix sum —
   O(m2 + m1) instead of O(m2 * m1).  A leaf's capacity is
   [min free cap]; a full-capacity uplink carries any demand up to 1.0,
   so when the leaf has at least [free] of them, its capacity is [free]
   without reading a float — which answers every fully-free leaf and
   every leaf with no free node in O(1) — and otherwise only the cables
   below full capacity are read. *)
let count_candidates t ~pod ~demand into =
  let m1 = Topology.m1 t.topo and m2 = Topology.m2 t.topo in
  Array.fill into 0 m1 0;
  for l = 0 to m2 - 1 do
    let leaf = Topology.leaf_of_coords t.topo ~pod ~leaf:l in
    let free = t.free_per_leaf.(leaf) in
    let upto =
      if free = 0 then 0
      else if demand <= 1.0 && Sim.Bits.popcount t.leaf_full_mask.(leaf) >= free
      then free
      else Stdlib.min free (Sim.Bits.popcount (leaf_up_bits t ~leaf ~demand))
    in
    if upto > 0 then into.(upto - 1) <- into.(upto - 1) + 1
  done;
  let acc = ref 0 in
  for n = m1 - 1 downto 0 do
    acc := !acc + into.(n);
    into.(n) <- !acc
  done

(* Recompute [pod]'s row and move the histogram by its delta: a count
   going from [a] to [b] at [n] enters (or leaves) the pod in the
   entries [k] of [min a b + 1 .. max a b]. *)
let refresh_candidates t f pod =
  let counts = f.cand.(pod) and recount = f.recount in
  count_candidates t ~pod ~demand:f.f_demand recount;
  for n = 0 to Array.length counts - 1 do
    let a = counts.(n) and b = recount.(n) in
    if a <> b then begin
      let h = f.hist.(n) in
      if b > a then
        for k = a + 1 to b do
          h.(k) <- h.(k) + 1
        done
      else
        for k = b + 1 to a do
          h.(k) <- h.(k) - 1
        done;
      counts.(n) <- b
    end
  done;
  f.cand_gen.(pod) <- t.pod_node_gen.(pod)

let pod_candidates t ~pod ~demand =
  let f = feas_for t demand in
  if f.cand_gen.(pod) <> t.pod_node_gen.(pod) then refresh_candidates t f pod;
  f.cand.(pod)

(* [JIGSAW_VALIDATE=1]: every row recounted from the leaves, then the
   histogram recounted from the rows. *)
let validate_candidate_pods t f =
  let m1 = Topology.m1 t.topo and m2 = Topology.m2 t.topo in
  let demand = f.f_demand in
  let row = Array.make m1 0 in
  Array.iteri
    (fun pod counts ->
      count_candidates t ~pod ~demand row;
      if row <> counts then
        failwith
          (Printf.sprintf
             "State.candidate_pods: pod %d's row at demand %g is stale" pod
             demand))
    f.cand;
  for n = 0 to m1 - 1 do
    for k = 0 to m2 do
      let c =
        Array.fold_left (fun c counts -> if counts.(n) >= k then c + 1 else c)
          0 f.cand
      in
      if f.hist.(n).(k) <> c then
        failwith
          (Printf.sprintf
             "State.candidate_pods: demand %g counts %d pods with >= %d \
              candidate leaves for %d nodes, the pods' rows %d"
             demand f.hist.(n).(k) k (n + 1) c)
    done
  done

(* The first read counts the histogram from the rows: O(pods * m1 +
   m1 * m2), where moving it row by row from zero rows could cost
   O(pods * m1 * m2). *)
let count_histogram t f =
  let m2 = Topology.m2 t.topo in
  Array.iteri
    (fun pod counts ->
      if f.cand_gen.(pod) <> t.pod_node_gen.(pod) then begin
        count_candidates t ~pod ~demand:f.f_demand counts;
        f.cand_gen.(pod) <- t.pod_node_gen.(pod)
      end)
    f.cand;
  Array.iteri
    (fun n h ->
      Array.fill h 0 (m2 + 1) 0;
      Array.iter (fun counts -> h.(counts.(n)) <- h.(counts.(n)) + 1) f.cand;
      for k = m2 - 1 downto 0 do
        h.(k) <- h.(k) + h.(k + 1)
      done)
    f.hist

(* Bring the rows moved since the last read up to date; the node epoch
   makes a read at an unchanged state O(1). *)
let candidate_pods t ~demand =
  let f = feas_for t demand in
  if f.synced <> t.node_epoch then begin
    if f.synced < 0 then count_histogram t f
    else
      for pod = 0 to Array.length f.cand - 1 do
        if f.cand_gen.(pod) <> t.pod_node_gen.(pod) then
          refresh_candidates t f pod
      done;
    f.synced <- t.node_epoch
  end;
  if forced_validation then validate_candidate_pods t f;
  f.hist

let validate_fully_free_pods t =
  let m2 = Topology.m2 t.topo in
  Array.iteri
    (fun pod c ->
      let fresh = ref 0 in
      for l = 0 to m2 - 1 do
        if leaf_fully_free t (Topology.leaf_of_coords t.topo ~pod ~leaf:l) then
          incr fresh
      done;
      if c <> !fresh then
        failwith
          (Printf.sprintf
             "State.fully_free_pods: pod %d counts %d fully-free leaves, its \
              leaves %d"
             pod c !fresh))
    t.pod_free_leaves;
  for k = 0 to m2 do
    let c =
      Array.fold_left (fun c n -> if n >= k then c + 1 else c) 0
        t.pod_free_leaves
    in
    if t.free_pods_at.(k) <> c then
      failwith
        (Printf.sprintf
           "State.fully_free_pods: %d pods with >= %d fully-free leaves, the \
            pods' counts %d"
           t.free_pods_at.(k) k c)
  done

let fully_free_pods t =
  if forced_validation then validate_fully_free_pods t;
  t.free_pods_at

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

(* [JIGSAW_VALIDATE=1]: every leaf of [pod] re-derived from its
   floats. *)
let validate_up_masks t ~pod ~demand masks =
  let m1 = Topology.m1 t.topo and m2 = Topology.m2 t.topo in
  for leaf = pod * m2 to ((pod + 1) * m2) - 1 do
    let fresh =
      up_mask t.leaf_up (leaf_fails t) ~first:(leaf * m1) ~width:m1 ~demand
    in
    if masks.(leaf) <> fresh then
      failwith
        (Printf.sprintf
           "State.leaf_up_masks: pod %d leaf %d at demand %g reads %#x, its \
            cables %#x"
           pod leaf demand masks.(leaf) fresh)
  done

(* Demand 1.0 reads the maintained full-capacity words; any other
   demand refreshes [pod]'s words of its record when the pod's node
   generation moved. *)
let leaf_up_masks t ~pod ~demand =
  let masks =
    if demand = 1.0 then t.leaf_full_mask
    else begin
      let f = feas_for t demand in
      let gen = t.pod_node_gen.(pod) in
      if f.up_gen.(pod) <> gen then begin
        let m2 = Topology.m2 t.topo in
        for leaf = pod * m2 to ((pod + 1) * m2) - 1 do
          f.up.(leaf) <- leaf_up_bits t ~leaf ~demand
        done;
        f.up_gen.(pod) <- gen
      end;
      f.up
    end
  in
  if forced_validation then validate_up_masks t ~pod ~demand masks;
  masks
