(* Performance regression guards (Slow): the paper's Table 3 claims
   millisecond-scale scheduling on clusters beyond 5000 nodes.  These
   tests bound wall-clock cost loosely (10x headroom over measured) so
   algorithmic regressions — e.g. losing a precheck and exploding the
   backtracking — fail loudly without making the suite flaky. *)

open Fattree
open Jigsaw_core

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let test_jigsaw_scales_to_radix28 () =
  (* Churn 200 mixed jobs on the 5488-node cluster, releasing as we go so
     allocations keep succeeding against a fragmented machine. *)
  let topo = Topology.of_radix 28 in
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed:2828 in
  let placed = ref 0 in
  let live = Queue.create () in
  let (), elapsed =
    time (fun () ->
        for job = 0 to 199 do
          let size = Sim.Prng.int_in prng ~lo:1 ~hi:400 in
          (match Jigsaw.probe st ~job ~size with
          | Partition.Found p ->
              incr placed;
              let a = Partition.to_alloc topo p ~bw:1.0 in
              State.claim_exn st a;
              Queue.add a live
          | Infeasible | Exhausted -> ());
          (* Keep the machine around 70-90% full. *)
          if State.node_utilization st > 0.85 && not (Queue.is_empty live) then
            State.release st (Queue.pop live)
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "most jobs placed (%d/200)" !placed)
    true (!placed > 150);
  Alcotest.(check bool)
    (Printf.sprintf "200 allocations under 10s (took %.2fs)" elapsed)
    true (elapsed < 10.0)

let test_failing_searches_are_bounded () =
  (* Fill the machine, then hammer infeasible requests: failures must be
     fast (this is what the shape prechecks buy). *)
  let topo = Topology.of_radix 18 in
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed:99 in
  let continue = ref true in
  let id = ref 0 in
  while !continue do
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:60 in
    (match Jigsaw.probe st ~job:!id ~size with
    | Partition.Found p ->
        State.claim_exn st (Partition.to_alloc topo p ~bw:1.0)
    | Infeasible | Exhausted -> continue := false);
    incr id
  done;
  let (), elapsed =
    time (fun () ->
        for job = 0 to 499 do
          ignore (Jigsaw.probe st ~job ~size:300)
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "500 failing searches under 5s (took %.2fs)" elapsed)
    true (elapsed < 5.0)

let test_routing_scales () =
  (* Route permutations over a 500-node partition on the big cluster. *)
  let topo = Topology.of_radix 28 in
  let st = State.create topo in
  match Jigsaw.probe st ~job:0 ~size:500 with
  | Partition.Infeasible | Exhausted -> Alcotest.fail "empty machine fits 500"
  | Found p ->
      let n = Jigsaw_core.Partition.node_count p in
      let (), elapsed =
        time (fun () ->
            for shift = 1 to 5 do
              match
                Routing.Rearrange.route_permutation topo p
                  ~perm:(Routing.Rearrange.demo_permutation ~n ~shift)
              with
              | Ok _ -> ()
              | Error m -> Alcotest.fail m
            done)
      in
      Alcotest.(check bool)
        (Printf.sprintf "5 permutation routings under 10s (took %.2fs)" elapsed)
        true (elapsed < 10.0)

let suite =
  [
    Alcotest.test_case "Jigsaw scales to radix 28" `Slow test_jigsaw_scales_to_radix28;
    Alcotest.test_case "failing searches bounded" `Slow test_failing_searches_are_bounded;
    Alcotest.test_case "routing scales" `Slow test_routing_scales;
  ]
