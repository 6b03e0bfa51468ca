open Fattree
open Jigsaw_core

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun m -> Error m) fmt

type switch = Leaf of int | L2 of int | Spine of int

type t = { tables : (switch * int, int) Hashtbl.t; topo : Topology.t }

let pp_switch ppf = function
  | Leaf l -> Format.fprintf ppf "leaf %d" l
  | L2 x -> Format.fprintf ppf "L2 %d" x
  | Spine s -> Format.fprintf ppf "spine %d" s

(* Record one (switch, dst) -> port entry, rejecting conflicts. *)
let record tbl sw dst port =
  match Hashtbl.find_opt tbl (sw, dst) with
  | None ->
      Hashtbl.replace tbl (sw, dst) port;
      Ok ()
  | Some p when p = port -> Ok ()
  | Some p ->
      fail "destination-based conflict at %a for node %d: ports %d vs %d"
        pp_switch sw dst p port

(* Decompose a routed path into per-switch entries. *)
let entries_of_path topo tbl (path : Path.t) =
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  let dst = path.dst in
  let dst_leaf = Topology.node_leaf topo dst in
  let into_dst_leaf () =
    record tbl (Leaf dst_leaf) dst (Topology.node_slot topo dst)
  in
  let leaf_up (up1 : Path.hop) =
    let src_leaf = Topology.leaf_l2_cable_leaf topo up1.cable in
    let i = Topology.leaf_l2_cable_l2_index topo up1.cable in
    record tbl (Leaf src_leaf) dst (m1 + i)
  in
  let l2_down l2 =
    record tbl (L2 l2) dst (Topology.leaf_index_in_pod topo dst_leaf)
  in
  match path.hops with
  | [] ->
      (* Intra-leaf: the leaf switch sends straight down. *)
      into_dst_leaf ()
  | [ up1; _ ] ->
      (* Intra-pod: src leaf up, one L2, dst leaf down. *)
      let l2 =
        Topology.l2_of_coords topo ~pod:(Topology.leaf_pod topo dst_leaf)
          ~index:(Topology.leaf_l2_cable_l2_index topo up1.cable)
      in
      let* () = leaf_up up1 in
      let* () = l2_down l2 in
      into_dst_leaf ()
  | [ up1; up2; down2; _ ] ->
      let src_l2 = Topology.l2_spine_cable_l2 topo up2.cable in
      let j = Topology.l2_spine_cable_spine_index topo up2.cable in
      let spine = Topology.spine_of_l2_cable topo up2.cable in
      let dst_l2 = Topology.l2_spine_cable_l2 topo down2.cable in
      let* () = leaf_up up1 in
      let* () = record tbl (L2 src_l2) dst (m2 + j) in
      let* () = record tbl (Spine spine) dst (Topology.l2_pod topo dst_l2) in
      let* () = l2_down dst_l2 in
      into_dst_leaf ()
  | _ -> fail "unexpected hop shape for %d -> %d" path.src path.dst

let compile topo (p : Partition.t) =
  let tbl = Hashtbl.create 256 in
  let v = Partition_routing.(view topo (Partition.to_alloc topo p ~bw:1.0)) in
  let* () =
    Partition_routing.each_pair (Partition.nodes topo p) (fun ~src ~dst ->
        let* path = Partition_routing.route v ~src ~dst in
        entries_of_path topo tbl path)
  in
  Ok { tables = tbl; topo }

let lookup t ~switch ~dst = Hashtbl.find_opt t.tables (switch, dst)
let num_entries t = Hashtbl.length t.tables

let switches t =
  let seen = Hashtbl.create 64 in
  Hashtbl.iter (fun (sw, _) _ -> Hashtbl.replace seen sw ()) t.tables;
  Hashtbl.fold (fun sw () acc -> sw :: acc) seen []

(* Hop-by-hop packet walk, driven entirely by table lookups. *)
let walk topo t ~src ~dst =
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  let hops = ref [] in
  let rec step sw ttl =
    if ttl < 0 then fail "TTL exceeded (routing loop) at %a" pp_switch sw
    else
      match lookup t ~switch:sw ~dst with
      | None -> fail "no table entry at %a for node %d" pp_switch sw dst
      | Some port -> (
          match sw with
          | Leaf leaf ->
              if port < m1 then begin
                (* down to a node: must be the destination *)
                let node = Topology.leaf_first_node topo leaf + port in
                if node = dst then Ok ()
                else fail "leaf %d delivered to wrong node %d" leaf node
              end
              else begin
                let i = port - m1 in
                let cable = Topology.leaf_l2_cable topo ~leaf ~l2_index:i in
                hops := { Path.tier = Path.Leaf_l2; cable; dir = Path.Up } :: !hops;
                step (L2 (Topology.l2_of_coords topo ~pod:(Topology.leaf_pod topo leaf) ~index:i)) (ttl - 1)
              end
          | L2 x ->
              if port < m2 then begin
                let leaf =
                  Topology.leaf_of_coords topo ~pod:(Topology.l2_pod topo x) ~leaf:port
                in
                let cable =
                  Topology.leaf_l2_cable topo ~leaf
                    ~l2_index:(Topology.l2_index_in_pod topo x)
                in
                hops := { Path.tier = Path.Leaf_l2; cable; dir = Path.Down } :: !hops;
                step (Leaf leaf) (ttl - 1)
              end
              else begin
                let j = port - m2 in
                let cable = Topology.l2_spine_cable topo ~l2:x ~spine_index:j in
                hops := { Path.tier = Path.L2_spine; cable; dir = Path.Up } :: !hops;
                step (Spine (Topology.spine_of_l2_cable topo cable)) (ttl - 1)
              end
          | Spine s ->
              let l2 = Topology.l2_of_spine_pod topo ~spine:s ~pod:port in
              let cable =
                Topology.l2_spine_cable topo ~l2
                  ~spine_index:(Topology.spine_index_in_group topo s)
              in
              hops := { Path.tier = Path.L2_spine; cable; dir = Path.Down } :: !hops;
              step (L2 l2) (ttl - 1))
  in
  let src_leaf = Topology.node_leaf topo src in
  if src_leaf = Topology.node_leaf topo dst then Ok (Path.local ~src ~dst)
  else begin
    let* () = step (Leaf src_leaf) 5 in
    Ok { Path.src; dst; hops = List.rev !hops }
  end

let verify_all_pairs topo (p : Partition.t) t =
  let alloc = Partition.to_alloc topo p ~bw:1.0 in
  Partition_routing.each_pair alloc.nodes (fun ~src ~dst ->
      let* path = walk topo t ~src ~dst in
      Path.uses_only alloc [ path ])
