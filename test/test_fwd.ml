(* Tests for forwarding-table compilation and table-driven packet
   walks. *)

open Fattree
open Jigsaw_core
open Routing

let topo = Topology.of_radix 8

let fixture size =
  let st = State.create topo in
  match Jigsaw.probe st ~job:0 ~size with
  | Partition.Found p -> p
  | Infeasible | Exhausted -> Alcotest.failf "no allocation for %d" size

let test_compile_and_walk_two_level () =
  let p = fixture 11 in
  match Fwd.compile topo p with
  | Error m -> Alcotest.fail m
  | Ok t -> (
      match Fwd.verify_all_pairs topo p t with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)

let test_compile_and_walk_three_level () =
  let p = fixture 23 in
  match Fwd.compile topo p with
  | Error m -> Alcotest.fail m
  | Ok t -> (
      match Fwd.verify_all_pairs topo p t with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)

let test_walk_matches_path_function () =
  let p = fixture 20 in
  let t = Result.get_ok (Fwd.compile topo p) in
  let nodes = Partition.nodes p in
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst then begin
            let walked = Result.get_ok (Fwd.walk topo t ~src ~dst) in
            let direct = Result.get_ok (Partition_routing.path topo p ~src ~dst) in
            Alcotest.(check int)
              (Printf.sprintf "%d->%d same hop count" src dst)
              (List.length direct.hops)
              (List.length walked.hops)
          end)
        nodes)
    nodes

let test_tables_are_small () =
  (* Entries are per (switch, destination): a 20-node partition needs at
     most (#switches it touches) * 20 entries. *)
  let p = fixture 20 in
  let t = Result.get_ok (Fwd.compile topo p) in
  let n_switches = List.length (Fwd.switches t) in
  Alcotest.(check bool) "entry bound" true
    (Fwd.num_entries t <= n_switches * 20);
  Alcotest.(check bool) "has entries" true (Fwd.num_entries t > 0)

let test_missing_entry_detected () =
  let p = fixture 8 in
  let t = Result.get_ok (Fwd.compile topo p) in
  (* A node outside the partition has no entries. *)
  let foreign = Topology.num_nodes topo - 1 in
  match Fwd.walk topo t ~src:(Partition.nodes p).(0) ~dst:foreign with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign destination walked"

let test_lookup_api () =
  let p = fixture 8 in
  let t = Result.get_ok (Fwd.compile topo p) in
  let nodes = Partition.nodes p in
  let dst = nodes.(Array.length nodes - 1) in
  let src = nodes.(0) in
  let src_leaf = Topology.node_leaf topo src in
  if src_leaf <> Topology.node_leaf topo dst then begin
    match Fwd.lookup t ~switch:(Fwd.Leaf src_leaf) ~dst with
    | Some port -> Alcotest.(check bool) "up port" true (port >= Topology.m1 topo)
    | None -> Alcotest.fail "entry expected"
  end

let prop_tables_deliver_everywhere =
  QCheck2.Test.make ~name:"compiled tables deliver all pairs on random partitions"
    ~count:25
    QCheck2.Gen.(pair (int_range 1 48) (int_range 0 100_000))
    (fun (size, seed) ->
      let st = State.create topo in
      let prng = Sim.Prng.create ~seed in
      (* Fragment first. *)
      for j = 0 to 4 do
        let s = Sim.Prng.int_in prng ~lo:1 ~hi:10 in
        match Jigsaw.probe st ~job:(50 + j) ~size:s with
        | Partition.Found q ->
            State.claim_exn st (Partition.to_alloc topo q ~bw:1.0)
        | Infeasible | Exhausted -> ()
      done;
      match Jigsaw.probe st ~job:0 ~size with
      | Partition.Infeasible | Exhausted -> QCheck2.assume_fail ()
      | Found p -> (
          match Fwd.compile topo p with
          | Error _ -> false
          | Ok t -> Fwd.verify_all_pairs topo p t = Ok ()))

let suite =
  [
    Alcotest.test_case "two-level compile and walk" `Quick test_compile_and_walk_two_level;
    Alcotest.test_case "three-level compile and walk" `Quick test_compile_and_walk_three_level;
    Alcotest.test_case "walk matches path function" `Quick test_walk_matches_path_function;
    Alcotest.test_case "table size bound" `Quick test_tables_are_small;
    Alcotest.test_case "missing entries detected" `Quick test_missing_entry_detected;
    Alcotest.test_case "lookup api" `Quick test_lookup_api;
    QCheck_alcotest.to_alcotest prop_tables_deliver_everywhere;
  ]
