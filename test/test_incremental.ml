(* Tests for the incremental availability layer and its consumers: the
   cached per-leaf/per-L2/per-pod summaries in [Fattree.State], the
   scheduler's no-fit memo soundness argument, [State.unrelease] as the
   exact inverse of [release], and the reservation search against its
   clone-per-probe references (forward walk and budgeted galloping
   search). *)

open Fattree

let eps = 1e-9

(* ------------------------------------------------------------------ *)
(* Scratch recomputation of every cached summary from the float
   capacity arrays, using the same predicate as the state's loops.     *)
(* ------------------------------------------------------------------ *)

let scratch_slot_mask st leaf =
  let topo = State.topo st in
  let m1 = Topology.m1 topo in
  let first = Topology.leaf_first_node topo leaf in
  let m = ref 0 in
  for i = 0 to m1 - 1 do
    if State.node_free st (first + i) then m := !m lor (1 lsl i)
  done;
  !m

let scratch_leaf_up_mask st leaf ~demand =
  let topo = State.topo st in
  let m1 = Topology.m1 topo in
  let m = ref 0 in
  for i = 0 to m1 - 1 do
    if State.leaf_up_remaining st ~cable:((leaf * m1) + i) >= demand -. eps
    then m := !m lor (1 lsl i)
  done;
  !m

let scratch_l2_up_mask st l2 ~demand =
  let topo = State.topo st in
  let m2 = Topology.m2 topo in
  let m = ref 0 in
  for j = 0 to m2 - 1 do
    if State.l2_up_remaining st ~cable:((l2 * m2) + j) >= demand -. eps then
      m := !m lor (1 lsl j)
  done;
  !m

let scratch_leaf_fully_free st leaf =
  let topo = State.topo st in
  let m1 = Topology.m1 topo in
  scratch_slot_mask st leaf = (1 lsl m1) - 1
  && scratch_leaf_up_mask st leaf ~demand:1.0 = (1 lsl m1) - 1

let scratch_pod_fully_free_leaves st pod =
  let topo = State.topo st in
  let m2 = Topology.m2 topo in
  let n = ref 0 in
  for i = 0 to m2 - 1 do
    if scratch_leaf_fully_free st (Topology.leaf_of_coords topo ~pod ~leaf:i)
    then incr n
  done;
  !n

let check_summaries_consistent st =
  let topo = State.topo st in
  for leaf = 0 to Topology.num_leaves topo - 1 do
    Alcotest.(check int)
      (Printf.sprintf "slot mask, leaf %d" leaf)
      (scratch_slot_mask st leaf)
      (State.free_slot_mask st leaf);
    Alcotest.(check int)
      (Printf.sprintf "free nodes, leaf %d" leaf)
      (scratch_slot_mask st leaf |> fun m ->
       let c = ref 0 in
       for i = 0 to Topology.m1 topo - 1 do
         if m land (1 lsl i) <> 0 then incr c
       done;
       !c)
      (State.free_nodes_on_leaf st leaf);
    Alcotest.(check int)
      (Printf.sprintf "leaf up mask, leaf %d" leaf)
      (scratch_leaf_up_mask st leaf ~demand:1.0)
      (State.leaf_up_mask st ~leaf ~demand:1.0);
    Alcotest.(check bool)
      (Printf.sprintf "fully free, leaf %d" leaf)
      (scratch_leaf_fully_free st leaf)
      (State.leaf_fully_free st leaf)
  done;
  for l2 = 0 to Topology.num_l2 topo - 1 do
    Alcotest.(check int)
      (Printf.sprintf "l2 up mask, l2 %d" l2)
      (scratch_l2_up_mask st l2 ~demand:1.0)
      (State.l2_up_mask st ~l2 ~demand:1.0)
  done;
  for pod = 0 to Topology.pods topo - 1 do
    Alcotest.(check int)
      (Printf.sprintf "fully-free leaves, pod %d" pod)
      (scratch_pod_fully_free_leaves st pod)
      (State.pod_fully_free_leaves st ~pod)
  done

(* Drive the state through a random claim/release history.  Mixing
   exclusive (bw 1.0) and fractional (LC+S-style) allocations exercises
   the full-capacity-mask maintenance across both the drained and the
   partially-used regimes. *)
let random_history ~seed ~steps st =
  let topo = State.topo st in
  let prng = Sim.Prng.create ~seed in
  let live = ref [] in
  let id = ref 0 in
  for _ = 1 to steps do
    incr id;
    let release_some = Sim.Prng.float prng ~bound:1.0 < 0.3 in
    if release_some && !live <> [] then begin
      let n = List.length !live in
      let k = Sim.Prng.int_in prng ~lo:0 ~hi:(n - 1) in
      let a = List.nth !live k in
      State.release st a;
      live := List.filteri (fun i _ -> i <> k) !live
    end
    else begin
      let size =
        Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes topo / 4)
      in
      let bw =
        match Sim.Prng.int_in prng ~lo:0 ~hi:2 with
        | 0 -> 1.0
        | 1 -> 0.5
        | _ -> 0.25
      in
      let found =
        if bw = 1.0 then
          Jigsaw_core.Jigsaw.probe st ~job:!id ~size
        else
          Jigsaw_core.Least_constrained.probe ~demand:bw st
            ~job:!id ~size
      in
      match found with
      | Jigsaw_core.Partition.Found p ->
          let a = Jigsaw_core.Partition.to_alloc topo p ~bw in
          State.claim_exn st a;
          live := a :: !live
      | Infeasible | Exhausted -> ()
    end
  done;
  !live

let test_summaries_match_scratch () =
  List.iter
    (fun seed ->
      let st = State.create (Topology.of_radix 8) in
      let _live = random_history ~seed ~steps:120 st in
      check_summaries_consistent st)
    [ 1; 42; 1234 ]

let test_summaries_match_after_each_step () =
  (* Same property but checked after every single mutation, on a smaller
     history, so a transiently wrong summary cannot hide behind a later
     compensating update. *)
  let st = State.create (Topology.of_radix 8) in
  let topo = State.topo st in
  let prng = Sim.Prng.create ~seed:7 in
  let live = ref [] in
  for id = 1 to 40 do
    (if Sim.Prng.float prng ~bound:1.0 < 0.3 && !live <> [] then begin
       let k = Sim.Prng.int_in prng ~lo:0 ~hi:(List.length !live - 1) in
       State.release st (List.nth !live k);
       live := List.filteri (fun i _ -> i <> k) !live
     end
     else
       let size = Sim.Prng.int_in prng ~lo:1 ~hi:24 in
       match Jigsaw_core.Jigsaw.probe st ~job:id ~size with
       | Jigsaw_core.Partition.Found p ->
           let a = Jigsaw_core.Partition.to_alloc topo p ~bw:1.0 in
           State.claim_exn st a;
           live := a :: !live
       | Infeasible | Exhausted -> ());
    check_summaries_consistent st
  done

let test_generations () =
  let st = State.create (Topology.of_radix 8) in
  Alcotest.(check int) "fresh" 0 (State.generation st);
  let a = Alloc.nodes_only ~job:1 ~size:2 [| 0; 1 |] in
  State.claim_exn st a;
  Alcotest.(check int) "one claim" 1 (State.claim_generation st);
  Alcotest.(check int) "no release yet" 0 (State.release_generation st);
  State.release st a;
  Alcotest.(check int) "one release" 1 (State.release_generation st);
  Alcotest.(check int) "total" 2 (State.generation st);
  (* Failed claims must not move the counters. *)
  State.claim_exn st a;
  (match State.claim st (Alloc.nodes_only ~job:2 ~size:1 [| 0 |]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double claim must fail");
  Alcotest.(check int) "failed claim uncounted" 2 (State.claim_generation st)

let test_unvalidated_claim () =
  (* [~validate:false] must apply exactly the same mutation as a
     validated claim. *)
  let topo = Topology.of_radix 8 in
  let a =
    {
      Alloc.job = 1;
      size = 2;
      nodes = [| 0; 5 |];
      leaf_cables = [| 0; 1 |];
      l2_cables = [| 3 |];
      bw = 1.0;
    }
  in
  let checked = State.create topo and unchecked = State.create topo in
  State.claim_exn checked a;
  State.claim_exn ~validate:false unchecked a;
  for leaf = 0 to Topology.num_leaves topo - 1 do
    Alcotest.(check int) "slot masks equal"
      (State.free_slot_mask checked leaf)
      (State.free_slot_mask unchecked leaf);
    Alcotest.(check int) "leaf masks equal"
      (State.leaf_up_mask checked ~leaf ~demand:1.0)
      (State.leaf_up_mask unchecked ~leaf ~demand:1.0)
  done;
  Alcotest.(check int) "free counts equal"
    (State.total_free_nodes checked)
    (State.total_free_nodes unchecked);
  check_summaries_consistent unchecked

(* ------------------------------------------------------------------ *)
(* No-fit memo soundness: an [Infeasible] verdict stays correct while
   only claims happen.                                                 *)
(* ------------------------------------------------------------------ *)

let test_memo_never_hides_feasible () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed:4242 in
  (* Fill the machine until a pod-scale request definitively fails. *)
  let target = 64 in
  let id = ref 0 in
  let continue = ref true in
  while
    !continue
    &&
    match Jigsaw_core.Jigsaw.probe st ~job:9999 ~size:target with
    | Found _ -> true
    | Infeasible -> false
    | Exhausted -> Alcotest.fail "default budget must not exhaust here"
  do
    incr id;
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:12 in
    match Jigsaw_core.Jigsaw.probe st ~job:!id ~size with
    | Jigsaw_core.Partition.Found p ->
        State.claim_exn st (Jigsaw_core.Partition.to_alloc topo p ~bw:1.0)
    | Infeasible | Exhausted -> continue := false
  done;
  Alcotest.(check bool) "reached a definitive no-fit" true (not !continue || true);
  let rg = State.release_generation st in
  (* Keep claiming (never releasing) and re-probe the failed size after
     every claim: the memoized verdict must stay correct. *)
  let claims = ref 0 in
  let going = ref true in
  while !going do
    incr id;
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:6 in
    match Jigsaw_core.Jigsaw.probe st ~job:!id ~size with
    | Jigsaw_core.Partition.Found p ->
        State.claim_exn st (Jigsaw_core.Partition.to_alloc topo p ~bw:1.0);
        incr claims;
        (match Jigsaw_core.Jigsaw.probe st ~job:9999 ~size:target with
        | Found _ ->
            Alcotest.fail
              "claim-only sequence made a definitively-infeasible size fit"
        | Infeasible | Exhausted -> ())
    | Infeasible | Exhausted -> going := false
  done;
  Alcotest.(check bool)
    (Printf.sprintf "exercised claims after the no-fit (%d)" !claims)
    true (!claims > 0);
  Alcotest.(check int) "no release happened" rg (State.release_generation st)

(* ------------------------------------------------------------------ *)
(* Forward-walk reservation == clone-per-probe reference.              *)
(* ------------------------------------------------------------------ *)

(* The simulator's grouping: completions sorted by estimated end, those
   sharing one end freed together. *)
let completion_groups running =
  let completions =
    List.sort (fun (a, _) (b, _) -> compare a b) running |> Array.of_list
  in
  let acc = ref [] in
  Array.iter
    (fun (t, a) ->
      match !acc with
      | (t', rs) :: rest when t' = t -> acc := (t, a :: rs) :: rest
      | _ -> acc := (t, [ a ]) :: !acc)
    completions;
  Array.of_list (List.rev !acc)

(* The pre-optimization implementation: identical sorting and grouping,
   but a fresh clone per drained prefix. *)
let reference_reservation (alloc : Sched.Allocator.t) st ~running ~job =
  let groups = completion_groups running in
  let rec try_prefix k =
    if k >= Array.length groups then None
    else begin
      let probe = State.clone st in
      for i = 0 to k do
        List.iter (fun a -> State.release probe a) (snd groups.(i))
      done;
      match alloc.probe_sized probe job with
      | Sized { alloc = a; _ } -> Some (fst groups.(k), a)
      | Sized_no_fit | Sized_gave_up -> try_prefix (k + 1)
    end
  in
  try_prefix 0

let saturated_state ~seed ~radix =
  (* A busy machine plus the (est_end, alloc) list of everything live,
     with deliberately colliding end times to exercise grouping. *)
  let topo = Topology.of_radix radix in
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed in
  let running = ref [] in
  let id = ref 0 in
  let continue = ref true in
  while !continue do
    incr id;
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:20 in
    match Jigsaw_core.Jigsaw.probe st ~job:!id ~size with
    | Jigsaw_core.Partition.Found p ->
        let a = Jigsaw_core.Partition.to_alloc topo p ~bw:1.0 in
        State.claim_exn st a;
        (* End times drawn from a small grid so several jobs share one. *)
        let est_end = float_of_int (10 * Sim.Prng.int_in prng ~lo:1 ~hi:8) in
        running := (est_end, a) :: !running
    | Infeasible | Exhausted -> continue := false
  done;
  (st, !running)

let test_reservation_equivalence () =
  List.iter
    (fun (alloc : Sched.Allocator.t) ->
      List.iter
        (fun seed ->
          let st, running = saturated_state ~seed ~radix:8 in
          List.iter
            (fun size ->
              let job = Trace.Job.v ~id:777 ~size ~runtime:50.0 () in
              let fast =
                Sched.Simulator.reservation alloc (Sched.Simulator.arenas st)
                  ~running ~job
              in
              let slow = reference_reservation alloc st ~running ~job in
              match (fast, slow) with
              | None, None -> ()
              | Some (t1, a1), Some (t2, a2) ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "%s size %d seed %d: time" alloc.name size
                       seed)
                    t2 t1;
                  Alcotest.(check bool)
                    (Printf.sprintf "%s size %d seed %d: same allocation"
                       alloc.name size seed)
                    true (a1 = a2)
              | _ ->
                  Alcotest.fail
                    (Printf.sprintf "%s size %d seed %d: one side found none"
                       alloc.name size seed))
            [ 4; 16; 40; 100; 129 ])
        [ 11; 57 ])
    Sched.Allocator.all

let test_reservation_empty_running () =
  let st = State.create (Topology.of_radix 8) in
  let job = Trace.Job.v ~id:1 ~size:4 ~runtime:10.0 () in
  Alcotest.(check bool) "no completions, no reservation" true
    (Sched.Simulator.reservation Sched.Allocator.jigsaw
       (Sched.Simulator.arenas st) ~running:[] ~job
    = None)

(* ------------------------------------------------------------------ *)
(* Budgeted (LC/LC+S) reservation == copy-per-probe galloping search.   *)
(* ------------------------------------------------------------------ *)

(* The budgeted search without the arenas: the same grouping and probe
   order — the drained prefix, then prefixes 0, 1, 3, 7, … clamped to
   g-2 until one fits, then a bisection between the last miss and that
   fit — but every probe on a fresh clone of the live state with its
   whole prefix released. *)
let reference_galloping_reservation (alloc : Sched.Allocator.t) st ~running
    ~job =
  let groups = completion_groups running in
  let g = Array.length groups in
  let attempt k =
    let probe = State.clone st in
    for i = 0 to k do
      List.iter (fun a -> State.release probe a) (snd groups.(i))
    done;
    match alloc.probe_sized probe job with
    | Sized { alloc = a; _ } -> Some a
    | Sized_no_fit | Sized_gave_up -> None
  in
  (* [bisect lo hi best]: prefixes below [lo] missed, [hi] fits with
     [best]. *)
  let rec bisect lo hi best =
    if lo >= hi then Some (fst groups.(hi), best)
    else
      let mid = (lo + hi) / 2 in
      match attempt mid with
      | Some a -> bisect lo mid a
      | None -> bisect (mid + 1) hi best
  in
  (* [gallop lo k last]: prefixes below [lo] missed; probe [k]. *)
  let rec gallop lo k last =
    match attempt k with
    | Some a -> bisect lo k a
    | None when k >= g - 2 -> Some (fst groups.(g - 1), last)
    | None -> gallop (k + 1) (min ((2 * k) + 1) (g - 2)) last
  in
  if g = 0 then None
  else
    match attempt (g - 1) with
    | None -> None
    | Some last ->
        if g = 1 then Some (fst groups.(0), last) else gallop 0 0 last

(* [alloc] with every probe logged: the probed state's free, busy and
   failed node counts and the verdict, so two searches can be compared
   probe for probe, not only by their answers. *)
let logged (alloc : Sched.Allocator.t) log =
  {
    alloc with
    probe_sized =
      (fun st j ->
        let v = alloc.probe_sized st j in
        log :=
          ( State.total_free_nodes st,
            State.busy_node_count st,
            State.failed_node_count st,
            v )
          :: !log;
        v);
  }

(* A saturated radix-8 machine mixing exclusive Jigsaw partitions with
   fractional LC+S ones — 0.3 is not dyadic, so releasing and
   re-claiming its cables rounds unless the inverse is exact — and end
   times on a coarse grid so completion groups hold several jobs. *)
let saturated_mixed ~seed =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed in
  let running = ref [] and misses = ref 0 and id = ref 0 in
  while !misses < 8 do
    incr id;
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:20 in
    let bw = [| 1.0; 0.25; 0.3; 0.5 |].(Sim.Prng.int_in prng ~lo:0 ~hi:3) in
    let found =
      if bw = 1.0 then Jigsaw_core.Jigsaw.probe st ~job:!id ~size
      else
        Jigsaw_core.Least_constrained.probe ~demand:bw st ~job:!id ~size
    in
    match found with
    | Jigsaw_core.Partition.Found p ->
        let a = Jigsaw_core.Partition.to_alloc topo p ~bw in
        State.claim_exn st a;
        let est_end = float_of_int (10 * Sim.Prng.int_in prng ~lo:1 ~hi:8) in
        running := (est_end, a) :: !running
    | Infeasible | Exhausted -> incr misses
  done;
  (st, !running)

(* Fail a node and a leaf cable of every third running allocation, and
   one free node, so drained prefixes hold failed-while-claimed
   resources that releases and unreleases must carry across. *)
let fail_some st running =
  List.iteri
    (fun i (_, (a : Alloc.t)) ->
      if i mod 3 = 0 then begin
        State.fail_node st a.nodes.(0);
        if Array.length a.leaf_cables > 0 then
          State.fail_leaf_cable st a.leaf_cables.(0)
      end)
    running;
  let topo = State.topo st in
  let rec first_free n =
    if n >= Topology.num_nodes topo then ()
    else if State.node_free st n then State.fail_node st n
    else first_free (n + 1)
  in
  first_free 0

let budgeted_allocators =
  [
    Sched.Allocator.lcs ();
    Sched.Allocator.lc_exclusive ();
    Sched.Allocator.lcs ~budget:40 ();
    Sched.Allocator.lc_exclusive ~budget:40 ();
  ]

(* A fast search's log in probe order.  Under JIGSAW_VALIDATE=1 a
   reused drained arena's probe is repeated on a freshly drained copy,
   right after it: the same entry, dropped here. *)
let search_probes log =
  match List.rev log with
  | x :: y :: rest when State.forced_validation && x = y -> x :: rest
  | l -> l

(* Same answer and the same probe sequence as the reference, on the
   arena pair [ar] (which a caller may reuse across calls). *)
let check_same_search ~what (alloc : Sched.Allocator.t) ar st ~running ~job
    ~gave_up =
  let fast_log = ref [] and ref_log = ref [] in
  let fast =
    Sched.Simulator.reservation (logged alloc fast_log) ar ~running ~job
  in
  let slow =
    reference_galloping_reservation (logged alloc ref_log) st ~running ~job
  in
  List.iter
    (fun (_, _, _, v) ->
      match v with Sched.Allocator.Sized_gave_up -> incr gave_up | _ -> ())
    !ref_log;
  let fast_probes = search_probes !fast_log in
  let what = Printf.sprintf "%s %s size %d" alloc.name what job.Trace.Job.size in
  Alcotest.(check int) (what ^ ": probe count") (List.length !ref_log)
    (List.length fast_probes);
  Alcotest.(check bool) (what ^ ": same probes") true
    (fast_probes = List.rev !ref_log);
  match (fast, slow) with
  | None, None -> ()
  | Some (t1, a1), Some (t2, a2) ->
      Alcotest.(check (float 0.0)) (what ^ ": time") t2 t1;
      Alcotest.(check bool) (what ^ ": same allocation") true (a1 = a2)
  | _ -> Alcotest.fail (what ^ ": one side found none")

let test_budgeted_reservation_exact () =
  let gave_up = ref 0 in
  List.iter
    (fun alloc ->
      List.iter
        (fun seed ->
          let st, running = saturated_mixed ~seed in
          List.iter
            (fun faulty ->
              if faulty then fail_some st running;
              List.iter
                (fun size ->
                  let job =
                    Trace.Job.v ~id:777 ~size ~runtime:50.0 ~bw_class:0.3 ()
                  in
                  check_same_search
                    ~what:(Printf.sprintf "seed %d faulty %b" seed faulty)
                    alloc (Sched.Simulator.arenas st) st ~running ~job ~gave_up)
                [ 4; 16; 40; 100; 128 ])
            [ false; true ])
        [ 11; 57; 90 ])
    budgeted_allocators;
  (* The tiny budget must actually cut probes short, or the non-monotone
     case this test exists for went unexercised. *)
  Alcotest.(check bool)
    (Printf.sprintf "some probes gave up (%d)" !gave_up)
    true (!gave_up > 0)

(* One arena pair across calls, with faults landing and healing in
   between: the drained arena must be rebuilt whenever the live fault
   overlay moved.  The whole-machine job fits only on a fully drained,
   fully healthy machine, so a stale drained arena answers it wrongly
   after the fault. *)
let test_reservation_across_faults () =
  let gave_up = ref 0 in
  List.iter
    (fun alloc ->
      let st, running = saturated_mixed ~seed:23 in
      let ar = Sched.Simulator.arenas st in
      let check what =
        List.iter
          (fun size ->
            let job = Trace.Job.v ~id:778 ~size ~runtime:50.0 () in
            check_same_search ~what alloc ar st ~running ~job ~gave_up)
          [ 8; 60; 128 ]
      in
      let _, (a : Alloc.t) = List.hd running in
      let node = a.nodes.(0) in
      check "healthy";
      State.fail_node st node;
      check "after fail";
      State.fail_l2_cable st 0;
      check "after cable fail";
      State.repair_node st node;
      State.repair_l2_cable st 0;
      check "after repairs";
      check "reused")
    budgeted_allocators

(* [sched/reservation_probes] counts every probe of both search
   sequences, exactly: it matches the logged probe count call by call,
   and its totals over the [saturated_mixed] seeds are pinned, so a
   change to the probe order shows here as a number. *)
let test_reservation_probe_counter () =
  let total (alloc : Sched.Allocator.t) =
    let p = Obs.Prof.create () in
    List.iter
      (fun seed ->
        let st, running = saturated_mixed ~seed in
        let ar = Sched.Simulator.arenas st in
        List.iter
          (fun size ->
            let job =
              Trace.Job.v ~id:777 ~size ~runtime:50.0 ~bw_class:0.3 ()
            in
            let log = ref [] in
            let before = Obs.Prof.counter p "sched/reservation_probes" in
            ignore
              (Sched.Simulator.reservation ~prof:p (logged alloc log) ar
                 ~running ~job);
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d size %d: counter = probes" alloc.name
                 seed size)
              (List.length (search_probes !log))
              (Obs.Prof.counter p "sched/reservation_probes" - before))
          [ 4; 16; 40; 100; 128 ])
      [ 11; 57; 90 ];
    Obs.Prof.counter p "sched/reservation_probes"
  in
  List.iter
    (fun (alloc, expected) ->
      Alcotest.(check int) (alloc.Sched.Allocator.name ^ " total probes")
        expected (total alloc))
    [
      (Sched.Allocator.lcs (), 57);
      (Sched.Allocator.lc_exclusive (), 57);
      (Sched.Allocator.jigsaw, 53);
    ]

(* qcheck: with a budget no probe exhausts, LC+S and exclusive LC
   feasibility is monotone in the drained prefix, so the galloping
   search lands on the forward walk's answer — same instant, same
   allocation. *)
let prop_galloping_matches_linear =
  QCheck2.Test.make ~name:"budgeted galloping == linear walk without give-ups"
    ~count:40
    QCheck2.Gen.(
      quad (int_range 0 1_000_000) (int_range 1 128)
        (oneofl [ 0.25; 0.3; 0.5; 1.0 ])
        bool)
    (fun (seed, size, bw, faulty) ->
      let st, running = saturated_mixed ~seed in
      if faulty then fail_some st running;
      let job = Trace.Job.v ~id:779 ~size ~runtime:50.0 ~bw_class:bw () in
      List.for_all
        (fun (alloc : Sched.Allocator.t) ->
          let log = ref [] in
          let fast =
            Sched.Simulator.reservation (logged alloc log)
              (Sched.Simulator.arenas st) ~running ~job
          in
          if
            List.exists
              (fun (_, _, _, v) -> v = Sched.Allocator.Sized_gave_up)
              !log
          then
            QCheck2.Test.fail_reportf "%s size %d: a probe gave up" alloc.name
              size;
          let slow = reference_reservation alloc st ~running ~job in
          match (fast, slow) with
          | None, None -> true
          | Some (t1, a1), Some (t2, a2) when t1 = t2 && a1 = a2 -> true
          | _ ->
              QCheck2.Test.fail_reportf
                "%s seed %d size %d bw %g: answers differ" alloc.name seed size
                bw)
        [
          Sched.Allocator.lcs ~budget:max_int ();
          Sched.Allocator.lc_exclusive ~budget:max_int ();
        ])

(* ------------------------------------------------------------------ *)
(* qcheck: the lazily revalidated feasibility rows equal a fresh
   re-solve under random claim/release/fail/repair sequences with
   interleaved consultations (which is what plants stale rows for the
   generation stamps to catch).                                        *)
(* ------------------------------------------------------------------ *)

let demands = [| 0.125; 0.25; 0.375; 0.5; 1.0 |]

(* Ground truth from the capacity summaries only — never through the
   [pod_candidates]/[pod_spine_masks] cache layer under test. *)
let scratch_candidates st ~pod ~demand =
  let topo = State.topo st in
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  Array.init m1 (fun i ->
      let n = i + 1 in
      let c = ref 0 in
      for l = 0 to m2 - 1 do
        let leaf = Topology.leaf_of_coords topo ~pod ~leaf:l in
        if
          State.free_nodes_on_leaf st leaf >= n
          && Jigsaw_core.Mask.popcount (State.leaf_up_mask st ~leaf ~demand)
             >= n
        then incr c
      done;
      !c)

let scratch_spines st ~pod ~demand =
  let topo = State.topo st in
  Array.init (Topology.m1 topo) (fun i ->
      State.l2_up_mask st ~l2:(Topology.l2_of_coords topo ~pod ~index:i) ~demand)

type fault = Fnode of int | Fleaf_cable of int | Fl2_cable of int

let apply_repair st = function
  | Fnode n -> State.repair_node st n
  | Fleaf_cable c -> State.repair_leaf_cable st c
  | Fl2_cable c -> State.repair_l2_cable st c

(* One random step: claim, release, fail, repair, or a cache-warming
   consultation.  Returns updated (live allocs, live faults). *)
let random_step st prng ~id live faults =
  let topo = State.topo st in
  let r = Sim.Prng.float prng ~bound:1.0 in
  if r < 0.40 then begin
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes topo / 4) in
    let bw = demands.(Sim.Prng.int_in prng ~lo:0 ~hi:4) in
    let found =
      if bw = 1.0 then Jigsaw_core.Jigsaw.probe st ~job:id ~size
      else
        Jigsaw_core.Least_constrained.probe ~demand:bw st ~job:id ~size
    in
    match found with
    | Jigsaw_core.Partition.Found p ->
        let a = Jigsaw_core.Partition.to_alloc topo p ~bw in
        State.claim_exn st a;
        (a :: live, faults)
    | Infeasible | Exhausted -> (live, faults)
  end
  else if r < 0.65 then
    match live with
    | [] -> (live, faults)
    | _ ->
        let k = Sim.Prng.int_in prng ~lo:0 ~hi:(List.length live - 1) in
        State.release st (List.nth live k);
        (List.filteri (fun i _ -> i <> k) live, faults)
  else if r < 0.80 then begin
    let f =
      match Sim.Prng.int_in prng ~lo:0 ~hi:2 with
      | 0 -> Fnode (Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.num_nodes topo - 1))
      | 1 ->
          Fleaf_cable
            (Sim.Prng.int_in prng ~lo:0
               ~hi:(Topology.num_leaf_l2_cables topo - 1))
      | _ ->
          Fl2_cable
            (Sim.Prng.int_in prng ~lo:0
               ~hi:(Topology.num_l2_spine_cables topo - 1))
    in
    (match f with
    | Fnode n -> State.fail_node st n
    | Fleaf_cable c -> State.fail_leaf_cable st c
    | Fl2_cable c -> State.fail_l2_cable st c);
    (live, f :: faults)
  end
  else if r < 0.90 then
    match faults with
    | [] -> (live, faults)
    | _ ->
        let k = Sim.Prng.int_in prng ~lo:0 ~hi:(List.length faults - 1) in
        apply_repair st (List.nth faults k);
        (live, List.filteri (fun i _ -> i <> k) faults)
  else begin
    (* Consultation only: plant cached rows for later steps to stale. *)
    let pod = Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.pods topo - 1) in
    let demand = demands.(Sim.Prng.int_in prng ~lo:0 ~hi:4) in
    ignore (State.pod_candidates st ~pod ~demand);
    ignore (State.pod_spine_masks st ~pod ~demand);
    (live, faults)
  end

let prop_feasibility_rows_match_fresh_resolve =
  QCheck2.Test.make
    ~name:"pod_candidates/pod_spine_masks == fresh re-solve" ~count:30
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = State.create (Topology.of_radix 8) in
      let topo = State.topo st in
      let prng = Sim.Prng.create ~seed in
      let live = ref [] and faults = ref [] in
      for id = 1 to 60 do
        let l, f = random_step st prng ~id !live !faults in
        live := l;
        faults := f;
        (* Spot-check one random (pod, demand) row mid-history... *)
        let pod = Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.pods topo - 1) in
        let demand = demands.(Sim.Prng.int_in prng ~lo:0 ~hi:4) in
        if State.pod_candidates st ~pod ~demand <> scratch_candidates st ~pod ~demand
        then
          QCheck2.Test.fail_reportf "candidates diverge: pod %d demand %g" pod
            demand;
        if State.pod_spine_masks st ~pod ~demand <> scratch_spines st ~pod ~demand
        then
          QCheck2.Test.fail_reportf "spine masks diverge: pod %d demand %g" pod
            demand
      done;
      (* ... and every (pod, demand) row at the end. *)
      Array.iter
        (fun demand ->
          for pod = 0 to Topology.pods topo - 1 do
            if
              State.pod_candidates st ~pod ~demand
              <> scratch_candidates st ~pod ~demand
              || State.pod_spine_masks st ~pod ~demand
                 <> scratch_spines st ~pod ~demand
            then
              QCheck2.Test.fail_reportf "final row diverges: pod %d demand %g"
                pod demand
          done)
        demands;
      true)

(* From-scratch recounts of the two machine-wide histograms, from the
   capacity summaries only. *)
let scratch_candidate_pods st ~demand =
  let topo = State.topo st in
  let rows =
    Array.init (Topology.pods topo) (fun pod -> scratch_candidates st ~pod ~demand)
  in
  Array.init (Topology.m1 topo) (fun n ->
      Array.init (Topology.m2 topo + 1) (fun k ->
          Array.fold_left (fun c row -> if row.(n) >= k then c + 1 else c) 0 rows))

let scratch_fully_free_pods st =
  let topo = State.topo st in
  let counts =
    Array.init (Topology.pods topo) (scratch_pod_fully_free_leaves st)
  in
  Array.init (Topology.m2 topo + 1) (fun k ->
      Array.fold_left (fun c n -> if n >= k then c + 1 else c) 0 counts)

(* A random 60-step history on a radix-[radix] state: [random_step]'s
   claims, releases, fails, repairs and single-row consultations, LC+S
   claims at the non-dyadic demand 0.3, releases undone by [unrelease]
   (with a check while released), and the live state replaced by a
   [clone] (whose summaries start cold) or by a [copy_into] over a state
   whose summaries are warm — possibly at other demands, or in another
   order, after a clone.  [check st ~step ~all] runs after every step,
   and with [~all:true] once at the end. *)
let random_history ~radix ~seed check =
  let st = ref (State.create (Topology.of_radix radix)) in
  let spare = ref (State.create (Topology.of_radix radix)) in
  let prng = Sim.Prng.create ~seed in
  let live = ref [] and faults = ref [] in
  for id = 1 to 60 do
    let r = Sim.Prng.float prng ~bound:1.0 in
    if r < 0.1 then st := State.clone !st
    else if r < 0.2 then begin
      let old = !st in
      State.copy_into ~src:old ~dst:!spare;
      st := !spare;
      spare := old
    end
    else if r < 0.3 && !live <> [] then begin
      let a =
        List.nth !live (Sim.Prng.int_in prng ~lo:0 ~hi:(List.length !live - 1))
      in
      State.release !st a;
      check !st prng ~step:id ~all:false;
      State.unrelease !st a
    end
    else if r < 0.38 then begin
      let size = Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes (State.topo !st) / 4) in
      match Jigsaw_core.Least_constrained.probe ~demand:0.3 !st ~job:id ~size with
      | Jigsaw_core.Partition.Found p ->
          let a = Jigsaw_core.Partition.to_alloc (State.topo !st) p ~bw:0.3 in
          State.claim_exn !st a;
          live := a :: !live
      | Infeasible | Exhausted -> ()
    end
    else begin
      let l, f = random_step !st prng ~id !live !faults in
      live := l;
      faults := f
    end;
    check !st prng ~step:id ~all:false
  done;
  check !st prng ~step:61 ~all:true

(* Both histograms equal a from-scratch recount after every step of a
   [random_history].  Each step reads the candidate histogram at a
   random subset of the demands, so the others go stale over several
   steps and are brought up to date by a delta over many moved rows. *)
let prop_histograms_match_recount =
  QCheck2.Test.make
    ~name:"candidate_pods/fully_free_pods == from-scratch recount" ~count:30
    QCheck2.Gen.(pair (oneofl [ 8; 12 ]) (int_range 0 1_000_000))
    (fun (radix, seed) ->
      random_history ~radix ~seed (fun st prng ~step ~all ->
          if State.fully_free_pods st <> scratch_fully_free_pods st then
            QCheck2.Test.fail_reportf "fully-free histogram diverges at step %d"
              step;
          Array.iter
            (fun demand ->
              if
                (all || Sim.Prng.int_in prng ~lo:0 ~hi:1 = 0)
                && State.candidate_pods st ~demand
                   <> scratch_candidate_pods st ~demand
              then
                QCheck2.Test.fail_reportf
                  "candidate histogram diverges at step %d, demand %g" step
                  demand)
            demands);
      true)

(* Every read of a pod's uplink-mask row equals each leaf's mask scanned
   from its cables, after every step of a [random_history]: at three
   dyadic demands, the non-dyadic 0.3 the history also claims at, and
   1.0.  Each step reads a random subset of (pod, demand) rows, so rows
   go stale over several steps, across clones and copies, before they
   are read again. *)
let prop_leaf_up_masks_match_scan =
  QCheck2.Test.make ~name:"leaf_up_masks == from-scratch leaf scan" ~count:30
    QCheck2.Gen.(pair (oneofl [ 8; 12 ]) (int_range 0 1_000_000))
    (fun (radix, seed) ->
      random_history ~radix ~seed (fun st prng ~step ~all ->
          let topo = State.topo st in
          for pod = 0 to Topology.pods topo - 1 do
            List.iter
              (fun demand ->
                if all || Sim.Prng.int_in prng ~lo:0 ~hi:3 = 0 then begin
                  let ups = State.leaf_up_masks st ~pod ~demand in
                  for l = 0 to Topology.m2 topo - 1 do
                    let leaf = Topology.leaf_of_coords topo ~pod ~leaf:l in
                    let want = scratch_leaf_up_mask st leaf ~demand in
                    if ups.(leaf) <> want then
                      QCheck2.Test.fail_reportf
                        "step %d: pod %d leaf %d at demand %g reads %#x, its \
                         cables %#x"
                        step pod leaf demand ups.(leaf) want
                  done
                end)
              [ 0.125; 0.25; 0.375; 0.3; 1.0 ]
          done);
      true)

(* A state's per-demand records (candidate rows and histograms, spine
   and uplink-mask rows, generation-stamped) must be invisible to the LC
   search: probing a state whose records are warm returns exactly what
   probing a cold [clone] does, verdict for verdict — including
   [Exhausted] cut-offs, which a stale row would move.  A third input is
   a [copy_into] destination that held records for other demands, of
   another history, before taking the live state's: what a reservation
   scratch arena receives. *)
let prop_lc_warm_records_match_cold =
  QCheck2.Test.make ~name:"LC probe on warm per-demand records == on cold clone"
    ~count:20
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = State.create (Topology.of_radix 8) in
      let prng = Sim.Prng.create ~seed in
      let live = ref [] and faults = ref [] in
      let lc_probe ?budget ~demand st ~size =
        Jigsaw_core.Least_constrained.probe ?budget ~demand st ~job:9000 ~size
      in
      for id = 1 to 40 do
        let l, f = random_step st prng ~id !live !faults in
        live := l;
        faults := f;
        (* Warm the records on the live state as a scheduler would. *)
        if id mod 4 = 0 then
          ignore
            (lc_probe ~demand:0.25 st
               ~size:(Sim.Prng.int_in prng ~lo:1 ~hi:48))
      done;
      let dst = State.create (Topology.of_radix 8) in
      let dlive = ref [] and dfaults = ref [] in
      for id = 1 to 10 do
        let l, f = random_step dst prng ~id !dlive !dfaults in
        dlive := l;
        dfaults := f
      done;
      List.iter
        (fun demand -> ignore (lc_probe ~demand dst ~size:20))
        [ 0.125; 0.5; 0.375 ];
      State.copy_into ~src:st ~dst;
      List.iter
        (fun (demand, budget) ->
          for size = 1 to 24 do
            let warm = lc_probe ~demand ~budget st ~size in
            let copied = lc_probe ~demand ~budget dst ~size in
            let cold = lc_probe ~demand ~budget (State.clone st) ~size in
            if warm <> cold || copied <> cold then
              QCheck2.Test.fail_reportf
                "LC probe diverges (%s): size %d demand %g budget %d"
                (if warm <> cold then "warm" else "copied")
                size demand budget
          done)
        [ (1.0, 5_000); (0.25, 5_000); (0.5, 200); (0.25, 60) ];
      true)

(* Every observable of a state, read through the public API: node
   membership and fault flags, per-leaf counts and masks, raw cable
   capacities bit for bit, and the totals that pin [busy] and
   [failed_claimed]. *)
let observables st =
  let topo = State.topo st in
  let bits x = Int64.bits_of_float x in
  ( List.init (Topology.num_nodes topo) (fun n ->
        (State.node_free st n, State.node_claimed st n, State.node_failed st n)),
    List.init (Topology.num_leaves topo) (fun leaf ->
        ( State.free_nodes_on_leaf st leaf,
          State.free_slot_mask st leaf,
          State.leaf_up_mask st ~leaf ~demand:1.0,
          State.leaf_fully_free st leaf )),
    List.init (Topology.num_l2 topo) (fun l2 ->
        State.l2_up_mask st ~l2 ~demand:1.0),
    ( List.init (Topology.num_leaf_l2_cables topo) (fun cable ->
          bits (State.leaf_up_remaining st ~cable)),
      List.init (Topology.num_l2_spine_cables topo) (fun cable ->
          bits (State.l2_up_remaining st ~cable)) ),
    ( State.total_free_nodes st,
      State.busy_node_count st,
      State.failed_node_count st,
      List.init (Topology.pods topo) (fun pod ->
          State.pod_fully_free_leaves st ~pod) ) )

(* [unrelease] is the exact inverse of [release]: after a random
   claim/release/fail/repair history with fractional, non-dyadic
   demands among the claims, some stacked on shared cables, releasing
   up to three of the newest live allocations
   and unreleasing them in reverse restores every observable — also
   when one of the released nodes fails in between and is repaired
   after the unrelease. *)
let prop_unrelease_inverts_release =
  QCheck2.Test.make ~name:"release then unrelease restores every observable"
    ~count:40
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = State.create (Topology.of_radix 8) in
      let topo = State.topo st in
      let prng = Sim.Prng.create ~seed in
      let live = ref [] and faults = ref [] in
      for id = 1 to 50 do
        let l, f = random_step st prng ~id !live !faults in
        live := l;
        faults := f;
        if id mod 5 = 0 then begin
          let demand = [| 0.1; 0.3; 0.7 |].(Sim.Prng.int_in prng ~lo:0 ~hi:2) in
          let size = Sim.Prng.int_in prng ~lo:1 ~hi:12 in
          match
            Jigsaw_core.Least_constrained.probe ~demand st ~job:id ~size
          with
          | Jigsaw_core.Partition.Found p ->
              let a = Jigsaw_core.Partition.to_alloc topo p ~bw:demand in
              State.claim_exn st a;
              live := a :: !live
          | Infeasible | Exhausted -> ()
        end
      done;
      (* Then stack single-node claims on one leaf cable and one L2
         cable: the arithmetic inverse [v +. bw -. bw] drifts once two
         or more fractional demands share a cable. *)
      let leaf_cable =
        Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.num_leaf_l2_cables topo - 1)
      and l2_cable =
        Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.num_l2_spine_cables topo - 1)
      in
      for k = 1 to Sim.Prng.int_in prng ~lo:2 ~hi:4 do
        let bw = [| 0.1; 0.2; 0.3 |].(Sim.Prng.int_in prng ~lo:0 ~hi:2) in
        match
          List.find_opt (State.node_free st)
            (List.init (Topology.num_nodes topo) Fun.id)
        with
        | Some node -> (
            let a =
              {
                Alloc.job = 1000 + k;
                size = 1;
                nodes = [| node |];
                leaf_cables = [| leaf_cable |];
                l2_cables = [| l2_cable |];
                bw;
              }
            in
            match State.claim st a with
            | Ok () -> live := a :: !live
            | Error _ -> ())
        | None -> ()
      done;
      let n = min (List.length !live) (Sim.Prng.int_in prng ~lo:1 ~hi:3) in
      let picked = List.filteri (fun i _ -> i < n) !live in
      let before = observables st in
      List.iter (fun a -> State.release st a) picked;
      let flap =
        match picked with
        | (a : Alloc.t) :: _ when Sim.Prng.int_in prng ~lo:0 ~hi:1 = 0 ->
            State.fail_node st a.nodes.(0);
            Some a.nodes.(0)
        | _ -> None
      in
      List.iter (fun a -> State.unrelease st a) (List.rev picked);
      Option.iter (State.repair_node st) flap;
      if observables st <> before then
        QCheck2.Test.fail_reportf "%d releases not undone exactly" n;
      check_summaries_consistent st;
      true)

let test_unrelease_lifo () =
  let st = State.create (Topology.of_radix 8) in
  let a = Alloc.nodes_only ~job:1 ~size:2 [| 0; 1 |]
  and b = Alloc.nodes_only ~job:2 ~size:1 [| 2 |] in
  State.claim_exn st a;
  State.claim_exn st b;
  State.release st a;
  State.release st b;
  Alcotest.check_raises "out of order"
    (Invalid_argument
       "State.unrelease: not the latest release still undoable (a claim or \
        a later release intervened)")
    (fun () -> State.unrelease st a);
  State.unrelease st b;
  State.claim_exn st (Alloc.nodes_only ~job:3 ~size:1 [| 5 |]);
  Alcotest.(check bool) "a claim forfeits older releases" true
    (match State.unrelease st a with
    | () -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "summaries match scratch recomputation" `Quick
      test_summaries_match_scratch;
    Alcotest.test_case "summaries match after every step" `Quick
      test_summaries_match_after_each_step;
    Alcotest.test_case "generation counters" `Quick test_generations;
    Alcotest.test_case "unvalidated claim mutates identically" `Quick
      test_unvalidated_claim;
    Alcotest.test_case "no-fit memo soundness under claims" `Quick
      test_memo_never_hides_feasible;
    Alcotest.test_case "reservation equals clone-per-probe reference" `Quick
      test_reservation_equivalence;
    Alcotest.test_case "reservation with no completions" `Quick
      test_reservation_empty_running;
    Alcotest.test_case "budgeted reservation == copy-per-probe search" `Quick
      test_budgeted_reservation_exact;
    Alcotest.test_case "budgeted reservation across faults" `Quick
      test_reservation_across_faults;
    Alcotest.test_case "reservation probe counter" `Quick
      test_reservation_probe_counter;
    QCheck_alcotest.to_alcotest prop_galloping_matches_linear;
    Alcotest.test_case "unrelease is LIFO, forfeited by a claim" `Quick
      test_unrelease_lifo;
    QCheck_alcotest.to_alcotest prop_unrelease_inverts_release;
    QCheck_alcotest.to_alcotest prop_feasibility_rows_match_fresh_resolve;
    QCheck_alcotest.to_alcotest prop_histograms_match_recount;
    QCheck_alcotest.to_alcotest prop_leaf_up_masks_match_scan;
    QCheck_alcotest.to_alcotest prop_lc_warm_records_match_cold;
  ]
