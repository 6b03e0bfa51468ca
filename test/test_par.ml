(* Tests for the domain pool (Par.Pool) and the parallel sweep
   (Sched.Sweep): determinism across domain counts, registry merge
   algebra, ownership enforcement and exception propagation. *)

(* A cheap but order-sensitive pure function: catches any merge that
   permutes or drops slots. *)
let mix i =
  let h = ref (i * 2654435761) in
  for _ = 1 to 50 do
    h := !h lxor (!h lsr 13);
    h := !h * 1099511628211
  done;
  !h

let test_pool_determinism () =
  let cells = Array.init 37 (fun i -> i) in
  let expect = Array.map mix cells in
  List.iter
    (fun size ->
      Par.Pool.with_pool ~size (fun p ->
          let got = Par.Pool.run_cells p ~f:mix cells in
          Alcotest.(check (array int))
            (Printf.sprintf "pool size %d" size)
            expect got;
          let got_chunked = Par.Pool.run_cells ~chunk:5 p ~f:mix cells in
          Alcotest.(check (array int))
            (Printf.sprintf "pool size %d, chunk 5" size)
            expect got_chunked))
    [ 1; 2; 3; 8 ];
  Alcotest.(check (array int))
    "map ~jobs:4" expect
    (Par.Pool.map ~jobs:4 ~f:mix cells);
  Alcotest.(check (array int))
    "empty input" [||]
    (Par.Pool.map ~jobs:4 ~f:mix [||])

let test_exception_propagation () =
  Par.Pool.with_pool ~size:3 (fun p ->
      (* The pool must survive a failing batch and run the next one. *)
      (try
         ignore
           (Par.Pool.run_cells p
              ~f:(fun i -> if i = 11 then failwith "cell 11 exploded" else i)
              (Array.init 20 (fun i -> i)));
         Alcotest.fail "expected Failure"
       with Failure m ->
         Alcotest.(check string) "failure message" "cell 11 exploded" m);
      let ok = Par.Pool.run_cells p ~f:(fun i -> i + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool survives a failure" [| 2; 3; 4 |] ok)

let test_shutdown () =
  let p = Par.Pool.create ~size:2 in
  Alcotest.(check int) "size" 2 (Par.Pool.size p);
  Par.Pool.shutdown p;
  Par.Pool.shutdown p;
  (* idempotent *)
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run_cells: pool is shut down") (fun () ->
      ignore (Par.Pool.run_cells p ~f:(fun i -> i) [| 1 |]))

(* ------------------------------------------------------------------ *)
(* Obs.Prof: single-writer enforcement and merge algebra.              *)
(* ------------------------------------------------------------------ *)

let test_prof_single_writer () =
  let p = Obs.Prof.create () in
  Obs.Prof.incr p "c/ok";
  let failed_cross_domain =
    Domain.join
      (Domain.spawn (fun () ->
           match Obs.Prof.incr p "c/ok" with
           | () -> false
           | exception Invalid_argument _ -> true))
  in
  Alcotest.(check bool) "cross-domain write rejected" true failed_cross_domain;
  (* Cross-domain *reads* after the join are part of the contract. *)
  let q =
    Domain.join
      (Domain.spawn (fun () ->
           let q = Obs.Prof.create () in
           Obs.Prof.incr q "c/worker";
           Obs.Prof.record_span q "span/w" 2e3;
           q))
  in
  Alcotest.(check int) "read joined registry" 1 (Obs.Prof.counter q "c/worker");
  Obs.Prof.merge_into ~into:p q;
  Alcotest.(check int) "merged counter" 1 (Obs.Prof.counter p "c/worker")

(* A registry as a value: a list of integral operations.  Integral
   span/gauge values make float sums exact, so associativity and
   commutativity hold bit-for-bit and registries compare as their JSON
   dumps. *)
type op = Incr of int | Add of int * int | Sample of int * int | Span of int * int

let apply_ops ops =
  let p = Obs.Prof.create () in
  List.iter
    (fun op ->
      match op with
      | Incr k -> Obs.Prof.incr p (Printf.sprintf "c/%d" k)
      | Add (k, v) -> Obs.Prof.add p (Printf.sprintf "c/%d" k) v
      | Sample (k, v) ->
          Obs.Prof.sample p (Printf.sprintf "g/%d" k) (float_of_int v)
      | Span (k, v) ->
          Obs.Prof.record_span p (Printf.sprintf "s/%d" k) (float_of_int v))
    ops;
  p

let dump p =
  let b = Buffer.create 256 in
  Obs.Json.write_tree b (Obs.Prof.to_json p);
  Buffer.contents b

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> Incr k) (int_range 0 4);
        map2 (fun k v -> Add (k, v)) (int_range 0 4) (int_range 0 1000);
        map2 (fun k v -> Sample (k, v)) (int_range 0 3) (int_range 0 1000);
        map2 (fun k v -> Span (k, v)) (int_range 0 3) (int_range 0 100_000);
      ])

let ops_gen = QCheck2.Gen.(list_size (int_range 0 30) op_gen)

let prop_merge_commutative =
  QCheck2.Test.make ~name:"Prof.merge_into commutative (integral values)"
    ~count:100
    QCheck2.Gen.(pair ops_gen ops_gen)
    (fun (xs, ys) ->
      let ab = apply_ops xs in
      Obs.Prof.merge_into ~into:ab (apply_ops ys);
      let ba = apply_ops ys in
      Obs.Prof.merge_into ~into:ba (apply_ops xs);
      String.equal (dump ab) (dump ba))

let prop_merge_associative =
  QCheck2.Test.make ~name:"Prof.merge_into associative (integral values)"
    ~count:100
    QCheck2.Gen.(triple ops_gen ops_gen ops_gen)
    (fun (xs, ys, zs) ->
      (* (x <- y) <- z  vs  x <- (y <- z) *)
      let left = apply_ops xs in
      Obs.Prof.merge_into ~into:left (apply_ops ys);
      Obs.Prof.merge_into ~into:left (apply_ops zs);
      let yz = apply_ops ys in
      Obs.Prof.merge_into ~into:yz (apply_ops zs);
      let right = apply_ops xs in
      Obs.Prof.merge_into ~into:right yz;
      String.equal (dump left) (dump right))

(* ------------------------------------------------------------------ *)
(* Sweep: fingerprints and merged profiles must not see domain count.  *)
(* ------------------------------------------------------------------ *)

let small_grid ~profile =
  List.concat_map
    (fun (e : Trace.Presets.entry) ->
      let workload = Trace.Workload.truncate e.workload 120 in
      List.map
        (fun a ->
          Sched.Sweep.cell ~profile
            (Sched.Simulator.Config.make ~radix:e.cluster_radix a)
            workload)
        Sched.Allocator.all)
    (Trace.Presets.all ~full:false)
  |> Array.of_list

let fingerprints results =
  Array.map
    (fun (r : Sched.Sweep.result) -> Sched.Metrics.fingerprint r.metrics)
    results

let test_sweep_matches_serial () =
  let cells = small_grid ~profile:true in
  let serial = Sched.Sweep.run ~jobs:1 cells in
  let par = Sched.Sweep.run ~jobs:2 cells in
  Alcotest.(check (array string))
    "fingerprints: 2 domains = serial" (fingerprints serial)
    (fingerprints par);
  (* The deterministic half of the merged profile: counters and span
     counts are integers and must match exactly; span durations (and
     thus histograms and totals) are wall-clock and legitimately
     differ. *)
  let counters r =
    match Sched.Sweep.merged_profile r with
    | None -> Alcotest.fail "expected merged profile"
    | Some p -> Obs.Prof.counters p
  in
  let pairs l = List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l in
  Alcotest.(check (list string))
    "merged profile counters: 2 domains = serial"
    (pairs (counters serial))
    (pairs (counters par));
  let span_counts r =
    match Sched.Sweep.merged_profile r with
    | None -> []
    | Some p ->
        List.map
          (fun (k, (v : Obs.Prof.span_view)) ->
            Printf.sprintf "%s:%d" k v.sp_count)
          (Obs.Prof.spans p)
  in
  Alcotest.(check (list string))
    "merged span counts: 2 domains = serial" (span_counts serial)
    (span_counts par)

let test_sweep_faulty_matches_serial () =
  (* A seeded-fault, requeueing cell pair: the fault/kill/requeue path
     must be just as invisible to the merge. *)
  let e = Trace.Presets.synth_16 ~full:false in
  let workload = Trace.Workload.truncate e.workload 200 in
  let topo = Fattree.Topology.of_radix e.cluster_radix in
  let faults =
    Trace.Faults.generate ~seed:7 ~mtbf:2e4 ~mttr:5e3 ~horizon:1e5 topo
  in
  let resilience =
    {
      Sched.Simulator.requeue = true;
      resubmit_delay = 30.0;
      max_retries = 2;
      charge_lost_work = true;
      shrink = false;
    }
  in
  let cells =
    List.map
      (fun a ->
        Sched.Sweep.cell
          (Sched.Simulator.Config.make ~faults ~resilience
             ~radix:e.cluster_radix a)
          workload)
      Sched.Allocator.all
    |> Array.of_list
  in
  let serial = Sched.Sweep.run ~jobs:1 cells in
  let par = Sched.Sweep.run ~jobs:3 cells in
  Alcotest.(check (array string))
    "faulty fingerprints: 3 domains = serial" (fingerprints serial)
    (fingerprints par);
  Alcotest.(check bool)
    "faults actually fired" true
    (Array.exists
       (fun (r : Sched.Sweep.result) -> r.metrics.fault_events > 0)
       serial)

let suite =
  [
    Alcotest.test_case "pool determinism across sizes" `Quick
      test_pool_determinism;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagation;
    Alcotest.test_case "shutdown semantics" `Quick test_shutdown;
    Alcotest.test_case "Prof single-writer enforcement" `Quick
      test_prof_single_writer;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    Alcotest.test_case "sweep fingerprints match serial" `Slow
      test_sweep_matches_serial;
    Alcotest.test_case "faulty sweep matches serial" `Quick
      test_sweep_faulty_matches_serial;
  ]
