(* Tests for the adjusted (wraparound) D-mod-k routing inside partitions
   (paper Figure 5). *)

open Fattree
open Jigsaw_core
open Routing

let topo = Topology.of_radix 8

let alloc_and_claim st ~job ~size =
  match Jigsaw.probe st ~job ~size with
  | Partition.Infeasible | Exhausted ->
      Alcotest.failf "no allocation for size %d" size
  | Found p ->
      State.claim_exn st (Partition.to_alloc topo p ~bw:1.0);
      p

let test_connectivity_various_sizes () =
  let st = State.create topo in
  List.iteri
    (fun job size ->
      let p = alloc_and_claim st ~job ~size in
      match Partition_routing.check_connectivity topo p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "size %d: %s" size m)
    [ 1; 3; 7; 16; 17; 23; 40 ]

let test_only_allocated_cables () =
  let st = State.create topo in
  let p = alloc_and_claim st ~job:0 ~size:29 in
  let alloc = Partition.to_alloc topo p ~bw:1.0 in
  let paths = Partition_routing.all_pairs topo p in
  (match Path.uses_only alloc paths with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let n = Partition.node_count p in
  Alcotest.(check int) "all ordered pairs" (n * (n - 1)) (List.length paths)

let test_foreign_node_rejected () =
  let st = State.create topo in
  let p = alloc_and_claim st ~job:0 ~size:4 in
  let foreign = Topology.num_nodes topo - 1 in
  match Partition_routing.path topo p ~src:foreign ~dst:(Partition.nodes topo p).(0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign source accepted"

let test_deterministic () =
  let st = State.create topo in
  let p = alloc_and_claim st ~job:0 ~size:20 in
  let nodes = Partition.nodes topo p in
  let a = nodes.(0) and b = nodes.(15) in
  let p1 = Partition_routing.path topo p ~src:a ~dst:b in
  let p2 = Partition_routing.path topo p ~src:a ~dst:b in
  Alcotest.(check bool) "same route twice" true (p1 = p2)

let test_wraparound_on_remainder () =
  (* A partition with a remainder leaf: traffic to its nodes must still
     route, wrapping around its smaller uplink set. *)
  let st = State.create topo in
  let p = alloc_and_claim st ~job:0 ~size:19 in
  (* 19 = 4*4 + 3 in one pod or spans pods; either way a remainder
     exists. *)
  match Partition_routing.check_connectivity topo p with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_whole_machine_equals_dmodk () =
  (* On a whole-machine partition the adjusted routing has nothing to
     adjust: S is every L2 index, ranks coincide with slots, and the
     wraparound is the identity — so every route must equal plain
     D-mod-k.  (Figure 5's left/right sides coincide when the job owns
     the tree.) *)
  let st = State.create topo in
  let p = alloc_and_claim st ~job:0 ~size:(Topology.num_nodes topo) in
  let prng = Sim.Prng.create ~seed:123 in
  for _ = 1 to 300 do
    let src = Sim.Prng.int prng ~bound:(Topology.num_nodes topo) in
    let dst = Sim.Prng.int prng ~bound:(Topology.num_nodes topo) in
    if src <> dst then begin
      let adjusted =
        match Partition_routing.path topo p ~src ~dst with
        | Ok pa -> pa
        | Error m -> Alcotest.fail m
      in
      let plain = Dmodk.path topo ~src ~dst in
      Alcotest.(check bool)
        (Printf.sprintf "%d->%d identical" src dst)
        true
        (adjusted.hops = plain.hops)
    end
  done

let prop_partition_routing_connected =
  QCheck2.Test.make
    ~name:"adjusted routing connects all pairs on allocated cables" ~count:30
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 100_000))
    (fun (size, seed) ->
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      (* Fragment the machine a little first. *)
      for j = 0 to 5 do
        let s = Sim.Prng.int_in prng ~lo:1 ~hi:12 in
        match Jigsaw.probe st ~job:(100 + j) ~size:s with
        | Partition.Found q ->
            State.claim_exn st (Partition.to_alloc topo q ~bw:1.0)
        | Infeasible | Exhausted -> ()
      done;
      match Jigsaw.probe st ~job:0 ~size with
      | Partition.Infeasible | Exhausted -> QCheck2.assume_fail ()
      | Found p -> Partition_routing.check_connectivity topo p = Ok ())

let suite =
  [
    Alcotest.test_case "connectivity across sizes" `Quick test_connectivity_various_sizes;
    Alcotest.test_case "only allocated cables used" `Quick test_only_allocated_cables;
    Alcotest.test_case "foreign node rejected" `Quick test_foreign_node_rejected;
    Alcotest.test_case "deterministic routes" `Quick test_deterministic;
    Alcotest.test_case "wraparound on remainder switches" `Quick test_wraparound_on_remainder;
    Alcotest.test_case "whole machine degenerates to D-mod-k" `Quick test_whole_machine_equals_dmodk;
    QCheck_alcotest.to_alcotest prop_partition_routing_connected;
  ]
