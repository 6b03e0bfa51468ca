(* Quickstart: build a fat-tree, allocate an isolated partition with
   Jigsaw, check the formal conditions, and prove full interconnect
   bandwidth by routing a worst-case permutation with one flow per
   channel.

   Run with:  dune exec examples/quickstart.exe *)

open Fattree
open Jigsaw_core

let () =
  (* A maximal three-level fat-tree built from radix-16 switches: 1024
     nodes in 16 pods (the paper's smallest evaluation cluster). *)
  let topo = Topology.of_radix 16 in
  Format.printf "cluster: %a@." Topology.pp topo;
  Format.printf "XGFT:    %a@.@." Xgft.pp (Xgft.of_topology topo);

  (* Fresh resource state; then ask Jigsaw for a 100-node partition. *)
  let state = State.create topo in
  let partition =
    match Jigsaw.probe state ~job:1 ~size:100 with
    | Partition.Found p -> p
    | Infeasible | Exhausted -> failwith "empty machine must fit a 100-node job"
  in
  Format.printf "%a@.@." Partition.pp partition;

  (* The partition satisfies the formal conditions of paper section 3.2:
     exact size, balanced links, even node distribution, common L2 and
     spine sets. *)
  (match Conditions.check topo partition with
  | Ok () -> Format.printf "conditions: all satisfied@."
  | Error m -> Format.printf "conditions: VIOLATED (%s)@." m);

  (* Claim the resources; a second job gets a disjoint partition. *)
  State.claim_exn state (Partition.to_alloc topo partition ~bw:1.0);
  Format.printf "utilization after claim: %.1f%%@.@."
    (100.0 *. State.node_utilization state);

  (* Full interconnect bandwidth, demonstrated: route a cyclic-shift
     permutation (a classic adversarial pattern) across the partition.
     The router follows the paper's Appendix-A construction and returns
     one path per flow with at most one flow per directed channel, using
     only the partition's own cables. *)
  let n = Partition.node_count partition in
  let perm = Routing.Rearrange.demo_permutation ~n ~shift:(n / 2) in
  (match Routing.Rearrange.route_and_verify topo partition ~perm with
  | Ok paths ->
      Format.printf
        "routed a %d-flow shift permutation: max channel load = %d (isolated, full bandwidth)@."
        (List.length paths)
        (Routing.Path.max_channel_load paths)
  | Error m -> Format.printf "routing failed: %s@." m);

  (* And the production-style static routing: adjusted D-mod-k with
     wraparound (paper Figure 5) connects every pair inside the
     partition using only allocated links. *)
  match Routing.Partition_routing.check_connectivity topo partition with
  | Ok () -> Format.printf "adjusted D-mod-k: every pair connected on allocated links@."
  | Error m -> Format.printf "adjusted D-mod-k failed: %s@." m
