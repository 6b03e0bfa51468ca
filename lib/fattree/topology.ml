type t = { m1 : int; m2 : int; m3 : int }

(* Allocation search keeps sets of slots, leaves and L2 indices as
   OCaml-int bitmasks over [0 .. m1) or [0 .. m2), which have 63 bits. *)
let max_mask_width = 62

let create ~nodes_per_leaf ~leaves_per_pod ~pods =
  if nodes_per_leaf < 1 || leaves_per_pod < 1 || pods < 1 then
    invalid_arg "Topology.create: parameters must be >= 1";
  if nodes_per_leaf > max_mask_width || leaves_per_pod > max_mask_width then
    invalid_arg "Topology.create: nodes_per_leaf and leaves_per_pod must be <= 62";
  { m1 = nodes_per_leaf; m2 = leaves_per_pod; m3 = pods }

let of_radix k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Topology.of_radix: radix must be even and >= 2";
  create ~nodes_per_leaf:(k / 2) ~leaves_per_pod:(k / 2) ~pods:k

let radix t = if t.m1 = t.m2 && t.m3 = 2 * t.m1 then Some (2 * t.m1) else None
let m1 t = t.m1
let m2 t = t.m2
let m3 t = t.m3
let nodes_per_leaf t = t.m1
let leaves_per_pod t = t.m2
let pods t = t.m3
let l2_per_pod t = t.m1
let spine_groups t = t.m1
let spines_per_group t = t.m2
let nodes_per_pod t = t.m1 * t.m2
let num_nodes t = t.m1 * t.m2 * t.m3
let num_leaves t = t.m2 * t.m3
let num_l2 t = t.m1 * t.m3
let num_spines t = t.m1 * t.m2
let num_leaf_l2_cables t = t.m1 * t.m2 * t.m3
let num_l2_spine_cables t = t.m1 * t.m2 * t.m3

let check ~what v bound =
  if v < 0 || v >= bound then
    invalid_arg (Printf.sprintf "Topology: %s %d out of range [0, %d)" what v bound)

let node_of_coords t ~pod ~leaf ~slot =
  check ~what:"pod" pod t.m3;
  check ~what:"leaf" leaf t.m2;
  check ~what:"slot" slot t.m1;
  (((pod * t.m2) + leaf) * t.m1) + slot

let node_pod t n =
  check ~what:"node" n (num_nodes t);
  n / (t.m1 * t.m2)

let node_leaf t n =
  check ~what:"node" n (num_nodes t);
  n / t.m1

let node_slot t n =
  check ~what:"node" n (num_nodes t);
  n mod t.m1

let leaf_of_coords t ~pod ~leaf =
  check ~what:"pod" pod t.m3;
  check ~what:"leaf" leaf t.m2;
  (pod * t.m2) + leaf

let leaf_pod t l =
  check ~what:"leaf" l (num_leaves t);
  l / t.m2

let leaf_index_in_pod t l =
  check ~what:"leaf" l (num_leaves t);
  l mod t.m2

let leaf_first_node t l =
  check ~what:"leaf" l (num_leaves t);
  l * t.m1

let l2_of_coords t ~pod ~index =
  check ~what:"pod" pod t.m3;
  check ~what:"l2 index" index t.m1;
  (pod * t.m1) + index

let l2_pod t s =
  check ~what:"l2" s (num_l2 t);
  s / t.m1

let l2_index_in_pod t s =
  check ~what:"l2" s (num_l2 t);
  s mod t.m1

let spine_of_coords t ~group ~index =
  check ~what:"group" group t.m1;
  check ~what:"spine index" index t.m2;
  (group * t.m2) + index

let spine_group t sp =
  check ~what:"spine" sp (num_spines t);
  sp / t.m2

let spine_index_in_group t sp =
  check ~what:"spine" sp (num_spines t);
  sp mod t.m2

let leaf_l2_cable t ~leaf ~l2_index =
  check ~what:"leaf" leaf (num_leaves t);
  check ~what:"l2 index" l2_index t.m1;
  (leaf * t.m1) + l2_index

let leaf_l2_cable_leaf t c =
  check ~what:"leaf-l2 cable" c (num_leaf_l2_cables t);
  c / t.m1

let leaf_l2_cable_l2_index t c =
  check ~what:"leaf-l2 cable" c (num_leaf_l2_cables t);
  c mod t.m1

let l2_spine_cable t ~l2 ~spine_index =
  check ~what:"l2" l2 (num_l2 t);
  check ~what:"spine index" spine_index t.m2;
  (l2 * t.m2) + spine_index

let l2_spine_cable_l2 t c =
  check ~what:"l2-spine cable" c (num_l2_spine_cables t);
  c / t.m2

let l2_spine_cable_spine_index t c =
  check ~what:"l2-spine cable" c (num_l2_spine_cables t);
  c mod t.m2

let spine_of_l2_cable t c =
  let l2 = l2_spine_cable_l2 t c in
  let idx = l2_spine_cable_spine_index t c in
  spine_of_coords t ~group:(l2_index_in_pod t l2) ~index:idx

let l2_of_spine_pod t ~spine ~pod =
  check ~what:"spine" spine (num_spines t);
  l2_of_coords t ~pod ~index:(spine_group t spine)

let validate t =
  if t.m1 < 1 || t.m2 < 1 || t.m3 < 1 then Error "non-positive parameter"
  else if num_nodes t <> t.m1 * t.m2 * t.m3 then Error "node count mismatch"
  else if num_leaf_l2_cables t <> num_leaves t * l2_per_pod t then
    Error "leaf-l2 cable count mismatch"
  else if num_l2_spine_cables t <> num_l2 t * spines_per_group t then
    Error "l2-spine cable count mismatch"
  else Ok ()

let pp ppf t =
  match radix t with
  | Some k ->
      Format.fprintf ppf "fat-tree(radix=%d: %d nodes, %d pods, %d leaves/pod, %d nodes/leaf)"
        k (num_nodes t) t.m3 t.m2 t.m1
  | None ->
      Format.fprintf ppf "fat-tree(m1=%d, m2=%d, m3=%d: %d nodes)" t.m1 t.m2 t.m3
        (num_nodes t)

let to_string t = Format.asprintf "%a" pp t
