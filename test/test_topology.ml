(* Tests for the fat-tree topology substrate. *)

open Fattree

let t16 = Topology.of_radix 16

let test_radix_sizes () =
  (* The paper's four clusters (section 5.1). *)
  List.iter
    (fun (radix, nodes) ->
      let t = Topology.of_radix radix in
      Alcotest.(check int)
        (Printf.sprintf "radix %d" radix)
        nodes (Topology.num_nodes t))
    [ (16, 1024); (18, 1458); (22, 2662); (28, 5488) ]

let test_structure_counts () =
  Alcotest.(check int) "pods" 16 (Topology.pods t16);
  Alcotest.(check int) "leaves/pod" 8 (Topology.leaves_per_pod t16);
  Alcotest.(check int) "nodes/leaf" 8 (Topology.nodes_per_leaf t16);
  Alcotest.(check int) "l2/pod" 8 (Topology.l2_per_pod t16);
  Alcotest.(check int) "spine groups" 8 (Topology.spine_groups t16);
  Alcotest.(check int) "spines/group" 8 (Topology.spines_per_group t16);
  Alcotest.(check int) "num leaves" 128 (Topology.num_leaves t16);
  Alcotest.(check int) "num l2" 128 (Topology.num_l2 t16);
  Alcotest.(check int) "num spines" 64 (Topology.num_spines t16);
  Alcotest.(check int) "leaf-l2 cables" 1024 (Topology.num_leaf_l2_cables t16);
  Alcotest.(check int) "l2-spine cables" 1024 (Topology.num_l2_spine_cables t16)

let test_radix_detection () =
  Alcotest.(check (option int)) "radix" (Some 16) (Topology.radix t16);
  let odd = Topology.create ~nodes_per_leaf:2 ~leaves_per_pod:3 ~pods:2 in
  Alcotest.(check (option int)) "custom" None (Topology.radix odd)

let test_invalid_params () =
  Alcotest.check_raises "odd radix"
    (Invalid_argument "Topology.of_radix: radix must be even and >= 2")
    (fun () -> ignore (Topology.of_radix 7));
  Alcotest.check_raises "zero param"
    (Invalid_argument "Topology.create: parameters must be >= 1") (fun () ->
      ignore (Topology.create ~nodes_per_leaf:0 ~leaves_per_pod:1 ~pods:1))

let test_mask_width_guard () =
  let too_wide = "Topology.create: nodes_per_leaf and leaves_per_pod must be <= 62" in
  Alcotest.check_raises "m1 = 63" (Invalid_argument too_wide) (fun () ->
      ignore (Topology.create ~nodes_per_leaf:63 ~leaves_per_pod:1 ~pods:1));
  Alcotest.check_raises "m2 = 63" (Invalid_argument too_wide) (fun () ->
      ignore (Topology.create ~nodes_per_leaf:1 ~leaves_per_pod:63 ~pods:1));
  Alcotest.check_raises "radix 126" (Invalid_argument too_wide) (fun () ->
      ignore (Topology.of_radix 126));
  let t = Topology.create ~nodes_per_leaf:62 ~leaves_per_pod:62 ~pods:1 in
  Alcotest.(check int) "62 fits" 62 (Topology.m2 t);
  Alcotest.(check (option int)) "radix 124" (Some 124)
    (Topology.radix (Topology.of_radix 124))

let test_node_coords_roundtrip () =
  let t = Topology.create ~nodes_per_leaf:3 ~leaves_per_pod:4 ~pods:5 in
  for n = 0 to Topology.num_nodes t - 1 do
    let pod = Topology.node_pod t n in
    let leaf_in_pod = Topology.leaf_index_in_pod t (Topology.node_leaf t n) in
    let slot = Topology.node_slot t n in
    Alcotest.(check int) "roundtrip"
      n
      (Topology.node_of_coords t ~pod ~leaf:leaf_in_pod ~slot)
  done

let test_leaf_node_relation () =
  let t = t16 in
  for l = 0 to Topology.num_leaves t - 1 do
    let first = Topology.leaf_first_node t l in
    for s = 0 to Topology.m1 t - 1 do
      Alcotest.(check int) "node on leaf" l (Topology.node_leaf t (first + s))
    done
  done

let test_cable_roundtrips () =
  let t = t16 in
  for c = 0 to Topology.num_leaf_l2_cables t - 1 do
    let leaf = Topology.leaf_l2_cable_leaf t c in
    let idx = Topology.leaf_l2_cable_l2_index t c in
    Alcotest.(check int) "leaf cable" c (Topology.leaf_l2_cable t ~leaf ~l2_index:idx)
  done;
  for c = 0 to Topology.num_l2_spine_cables t - 1 do
    let l2 = Topology.l2_spine_cable_l2 t c in
    let idx = Topology.l2_spine_cable_spine_index t c in
    Alcotest.(check int) "l2 cable" c (Topology.l2_spine_cable t ~l2 ~spine_index:idx)
  done

let test_spine_wiring () =
  let t = t16 in
  (* Spine group structure: the cable from L2 switch (pod p, index i) at
     spine index j reaches spine (group i, index j); that spine reaches
     back to the same L2 via l2_of_spine_pod. *)
  for pod = 0 to Topology.pods t - 1 do
    for i = 0 to Topology.l2_per_pod t - 1 do
      let l2 = Topology.l2_of_coords t ~pod ~index:i in
      for j = 0 to Topology.spines_per_group t - 1 do
        let cable = Topology.l2_spine_cable t ~l2 ~spine_index:j in
        let spine = Topology.spine_of_l2_cable t cable in
        Alcotest.(check int) "spine group" i (Topology.spine_group t spine);
        Alcotest.(check int) "spine index" j (Topology.spine_index_in_group t spine);
        Alcotest.(check int) "back to l2" l2 (Topology.l2_of_spine_pod t ~spine ~pod)
      done
    done
  done

let test_bounds_checked () =
  Alcotest.check_raises "node oob"
    (Invalid_argument "Topology: node 1024 out of range [0, 1024)") (fun () ->
      ignore (Topology.node_pod t16 1024))

let test_validate () =
  Alcotest.(check bool) "valid" true (Result.is_ok (Topology.validate t16))

let test_pp () =
  Alcotest.(check string)
    "pp radix tree"
    "fat-tree(radix=16: 1024 nodes, 16 pods, 8 leaves/pod, 8 nodes/leaf)"
    (Topology.to_string t16)

let prop_every_node_has_unique_coords =
  QCheck2.Test.make ~name:"node ids are dense and unique over coords" ~count:50
    QCheck2.Gen.(triple (int_range 1 6) (int_range 1 6) (int_range 1 6))
    (fun (m1, m2, m3) ->
      let t = Topology.create ~nodes_per_leaf:m1 ~leaves_per_pod:m2 ~pods:m3 in
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      for pod = 0 to m3 - 1 do
        for leaf = 0 to m2 - 1 do
          for slot = 0 to m1 - 1 do
            let n = Topology.node_of_coords t ~pod ~leaf ~slot in
            if Hashtbl.mem seen n || n < 0 || n >= Topology.num_nodes t then
              ok := false;
            Hashtbl.add seen n ()
          done
        done
      done;
      !ok && Hashtbl.length seen = Topology.num_nodes t)

let suite =
  [
    Alcotest.test_case "paper cluster sizes" `Quick test_radix_sizes;
    Alcotest.test_case "structure counts" `Quick test_structure_counts;
    Alcotest.test_case "radix detection" `Quick test_radix_detection;
    Alcotest.test_case "invalid parameters" `Quick test_invalid_params;
    Alcotest.test_case "mask width guard" `Quick test_mask_width_guard;
    Alcotest.test_case "node coords roundtrip" `Quick test_node_coords_roundtrip;
    Alcotest.test_case "leaf/node relation" `Quick test_leaf_node_relation;
    Alcotest.test_case "cable id roundtrips" `Quick test_cable_roundtrips;
    Alcotest.test_case "spine wiring" `Quick test_spine_wiring;
    Alcotest.test_case "bounds checking" `Quick test_bounds_checked;
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    QCheck_alcotest.to_alcotest prop_every_node_has_unique_coords;
  ]
