open Fattree
open Jigsaw_core

let ( let* ) = Result.bind
let ( let+ ) r f = Result.map f r
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* One leaf of the allocation: its allocated L2 indices (sorted) and its
   rank among the job's leaves in its pod. *)
type leaf = { leaf : int; pod : int; ups : int array; leaf_rank : int }

type view = {
  topo : Topology.t;
  at : (int, leaf * int) Hashtbl.t;
      (** node -> its leaf and its rank among the job's nodes there *)
  spines : (int * int, int array) Hashtbl.t;
      (** (pod, L2 index) -> allocated spine indices, sorted *)
  common_ups : (int * int, int array) Hashtbl.t;
      (** (source leaf, destination leaf) -> shared L2 indices *)
  common_spines : (int * int * int, (int array, string) result) Hashtbl.t;
      (** (source pod, destination pod, L2 index) -> shared spines *)
}

(* Both caches are filled on first use: which pairs a flow set needs is
   not known up front, and each entry is a pure function of the
   allocation. *)
let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v

let inter a b =
  Array.of_list (List.filter (fun x -> Array.mem x b) (Array.to_list a))

let view topo (a : Alloc.t) =
  let group key value cables =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        let k = key c in
        Hashtbl.replace tbl k
          (value c :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
      cables;
    Hashtbl.to_seq tbl
    |> Seq.map (fun (k, l) -> (k, Array.of_list (List.sort compare l)))
    |> Hashtbl.of_seq
  in
  let ups =
    group
      (Topology.leaf_l2_cable_leaf topo)
      (Topology.leaf_l2_cable_l2_index topo)
      a.leaf_cables
  in
  let spines =
    group
      (fun c ->
        let l2 = Topology.l2_spine_cable_l2 topo c in
        (Topology.l2_pod topo l2, Topology.l2_index_in_pod topo l2))
      (Topology.l2_spine_cable_spine_index topo)
      a.l2_cables
  in
  (* Ascending node ids visit each leaf's nodes contiguously, and the
     leaves of a pod in ascending order. *)
  let nodes = Array.copy a.nodes in
  Sim.Intsort.sort nodes;
  let at = Hashtbl.create (Array.length nodes) in
  let leaves_in_pod = Hashtbl.create 8 in
  let cur = ref None and rank = ref 0 in
  Array.iter
    (fun n ->
      let l = Topology.node_leaf topo n in
      let lf =
        match !cur with
        | Some lf when lf.leaf = l ->
            incr rank;
            lf
        | _ ->
            let pod = Topology.leaf_pod topo l in
            let leaf_rank =
              Option.value ~default:0 (Hashtbl.find_opt leaves_in_pod pod)
            in
            Hashtbl.replace leaves_in_pod pod (leaf_rank + 1);
            let ups = Option.value ~default:[||] (Hashtbl.find_opt ups l) in
            let lf = { leaf = l; pod; ups; leaf_rank } in
            cur := Some lf;
            rank := 0;
            lf
      in
      Hashtbl.replace at n (lf, !rank))
    nodes;
  { topo; at; spines; common_ups = Hashtbl.create 8;
    common_spines = Hashtbl.create 8 }

let nth a r = a.(r mod Array.length a)

(* D-mod-k on allocation ranks: the destination's rank [r] on its leaf
   picks the L2 index, with wraparound over the destination leaf's
   (possibly smaller) uplink set.  A remainder source lacking that
   uplink wraps [r] around its own set instead; should that index miss
   the destination too, [r] indexes the two sets' intersection. *)
let uplink v s d r =
  if d.ups = [||] then fail "leaf %d has no uplinks" d.leaf
  else if s.ups = [||] then fail "leaf %d has no uplinks" s.leaf
  else
    let i = nth d.ups r in
    if Array.mem i s.ups then Ok i
    else
      let i = nth s.ups r in
      if Array.mem i d.ups then Ok i
      else
        match
          memo v.common_ups (s.leaf, d.leaf) (fun () -> inter s.ups d.ups)
        with
        | [||] ->
            fail "no common uplink between leaves %d and %d" s.leaf d.leaf
        | c -> Ok (nth c r)

(* The destination leaf's rank picks the spine among those that both
   pods' L2 switches at index [i] uplink to. *)
let spine v s d i =
  let+ common =
    memo v.common_spines (s.pod, d.pod, i) (fun () ->
        let set pod =
          match Hashtbl.find_opt v.spines (pod, i) with
          | Some a -> Ok a
          | None -> fail "pod %d has no spine set at L2 index %d" pod i
        in
        let* a = set s.pod in
        let* b = set d.pod in
        match inter a b with
        | [||] ->
            fail "no common spine between pods %d and %d at L2 index %d"
              s.pod d.pod i
        | c -> Ok c)
  in
  nth common d.leaf_rank

let route v ~src ~dst =
  match (Hashtbl.find_opt v.at src, Hashtbl.find_opt v.at dst) with
  | None, _ -> fail "source node %d not in the allocation" src
  | _, None -> fail "destination node %d not in the allocation" dst
  | Some (s, _), Some (d, r) ->
      if s.leaf = d.leaf then Ok (Path.local ~src ~dst)
      else
        let topo = v.topo in
        let* i = uplink v s d r in
        let leaf_hop leaf dir =
          { Path.tier = Path.Leaf_l2;
            cable = Topology.leaf_l2_cable topo ~leaf ~l2_index:i; dir }
        in
        let up = leaf_hop s.leaf Path.Up and down = leaf_hop d.leaf Path.Down in
        if s.pod = d.pod then Ok { Path.src; dst; hops = [ up; down ] }
        else
          let* spine_index = spine v s d i in
          let spine_hop pod dir =
            let l2 = Topology.l2_of_coords topo ~pod ~index:i in
            { Path.tier = Path.L2_spine;
              cable = Topology.l2_spine_cable topo ~l2 ~spine_index; dir }
          in
          Ok
            {
              Path.src;
              dst;
              hops =
                [ up; spine_hop s.pod Path.Up; spine_hop d.pod Path.Down; down ];
            }

let each_pair nodes f =
  let exception Stop of string in
  try
    Array.iter
      (fun src ->
        Array.iter
          (fun dst ->
            if src <> dst then
              match f ~src ~dst with Ok () -> () | Error m -> raise (Stop m))
          nodes)
      nodes;
    Ok ()
  with Stop m -> Error m

let of_partition topo p = view topo (Partition.to_alloc topo p ~bw:1.0)
let path topo p ~src ~dst = route (of_partition topo p) ~src ~dst

let all_pairs topo p =
  let v = of_partition topo p in
  let acc = ref [] in
  match
    each_pair (Partition.nodes topo p) (fun ~src ~dst ->
        let+ pa = route v ~src ~dst in
        acc := pa :: !acc)
  with
  | Ok () -> List.rev !acc
  | Error m -> invalid_arg ("Partition_routing.all_pairs: " ^ m)

let check_connectivity topo p =
  let alloc = Partition.to_alloc topo p ~bw:1.0 in
  let v = view topo alloc in
  each_pair alloc.nodes (fun ~src ~dst ->
      let* pa = route v ~src ~dst in
      Path.uses_only alloc [ pa ])
