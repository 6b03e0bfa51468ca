open Fattree

type target =
  | Node of int
  | Leaf_cable of int
  | L2_cable of int
  | Leaf_switch of int
  | L2_switch of int
  | Spine of int

type kind = Fail | Repair

type event = { time : float; kind : kind; target : target }

type t = { events : event array }

let none = { events = [||] }

(* Stable by construction: [List.stable_sort] keeps the scripted order
   of same-instant events, so fail-before-repair scripts stay
   deterministic. *)
let scripted evs =
  let events = Array.of_list (List.stable_sort (fun a b -> compare a.time b.time) evs) in
  Array.iter
    (fun e ->
      if e.time < 0.0 then invalid_arg "Faults.scripted: negative event time")
    events;
  { events }

(* Keeps the caller's order verbatim — the constructor for traces whose
   positions are load-bearing (the simulator tags scheduled fault events
   by array index, and a daemon appends injected events after the fact,
   possibly with earlier times than static ones). *)
let of_ordered evs =
  let events = Array.of_list evs in
  Array.iter
    (fun e ->
      if e.time < 0.0 then invalid_arg "Faults.of_ordered: negative event time")
    events;
  { events }

let events t = t.events
let num_events t = Array.length t.events
let is_empty t = Array.length t.events = 0

let kind_name = function Fail -> "fail" | Repair -> "repair"

let target_name = function
  | Node _ -> "node"
  | Leaf_cable _ -> "leaf-cable"
  | L2_cable _ -> "l2-cable"
  | Leaf_switch _ -> "leaf"
  | L2_switch _ -> "l2"
  | Spine _ -> "spine"

let target_id = function
  | Node i | Leaf_cable i | L2_cable i | Leaf_switch i | L2_switch i | Spine i
    -> i

let target_of_name name id =
  match name with
  | "node" -> Ok (Node id)
  | "leaf-cable" -> Ok (Leaf_cable id)
  | "l2-cable" -> Ok (L2_cable id)
  | "leaf" -> Ok (Leaf_switch id)
  | "l2" -> Ok (L2_switch id)
  | "spine" -> Ok (Spine id)
  | _ ->
      Error
        (Printf.sprintf
           "unknown fault target %S (node|leaf-cable|l2-cable|leaf|l2|spine)"
           name)

(* ------------------------------------------------------------------ *)
(* Target -> concrete resources                                        *)
(* ------------------------------------------------------------------ *)

(* A whole-switch failure takes down every cable hanging off the switch
   — and, for a leaf switch, its nodes, which have no other path into
   the network.  Nodes behind a failed L2/spine keep their remaining
   uplinks (the tree is multi-path above the leaf level). *)
let resources topo target =
  let check what id bound =
    if id < 0 || id >= bound then
      invalid_arg (Printf.sprintf "Faults.resources: %s %d out of range" what id)
  in
  match target with
  | Node n ->
      check "node" n (Topology.num_nodes topo);
      ([| n |], [||], [||])
  | Leaf_cable c ->
      check "leaf cable" c (Topology.num_leaf_l2_cables topo);
      ([||], [| c |], [||])
  | L2_cable c ->
      check "l2 cable" c (Topology.num_l2_spine_cables topo);
      ([||], [||], [| c |])
  | Leaf_switch leaf ->
      check "leaf switch" leaf (Topology.num_leaves topo);
      let m1 = Topology.m1 topo in
      let first = Topology.leaf_first_node topo leaf in
      ( Array.init m1 (fun i -> first + i),
        Array.init m1 (fun i -> Topology.leaf_l2_cable topo ~leaf ~l2_index:i),
        [||] )
  | L2_switch l2 ->
      check "l2 switch" l2 (Topology.num_l2 topo);
      let m2 = Topology.m2 topo in
      let pod = Topology.l2_pod topo l2 in
      let idx = Topology.l2_index_in_pod topo l2 in
      let leaf_cables =
        Array.init m2 (fun i ->
            let leaf = Topology.leaf_of_coords topo ~pod ~leaf:i in
            Topology.leaf_l2_cable topo ~leaf ~l2_index:idx)
      in
      let l2_cables =
        Array.init m2 (fun j -> Topology.l2_spine_cable topo ~l2 ~spine_index:j)
      in
      ([||], leaf_cables, l2_cables)
  | Spine sp ->
      check "spine" sp (Topology.num_spines topo);
      let group = Topology.spine_group topo sp in
      let idx = Topology.spine_index_in_group topo sp in
      let cables =
        Array.init (Topology.pods topo) (fun pod ->
            let l2 = Topology.l2_of_coords topo ~pod ~index:group in
            Topology.l2_spine_cable topo ~l2 ~spine_index:idx)
      in
      ([||], [||], cables)

let apply st target =
  let nodes, leaf_cables, l2_cables = resources (State.topo st) target in
  Array.iter (State.fail_node st) nodes;
  Array.iter (State.fail_leaf_cable st) leaf_cables;
  Array.iter (State.fail_l2_cable st) l2_cables

let revert st target =
  let nodes, leaf_cables, l2_cables = resources (State.topo st) target in
  Array.iter (State.repair_node st) nodes;
  Array.iter (State.repair_leaf_cable st) leaf_cables;
  Array.iter (State.repair_l2_cable st) l2_cables

(* ------------------------------------------------------------------ *)
(* MTBF/MTTR generation                                                *)
(* ------------------------------------------------------------------ *)

(* One deterministic stream per component, independent of every other
   component and of how far any other stream is consumed — the same
   seed yields the same fault history whatever scheduler replays it
   (mirroring Scenario's per-job streams). *)
let component_prng ~seed ~klass ~id =
  Sim.Prng.create ~seed:((((seed * 1_000_003) + klass) * 1_000_003) + id)

let generate ?(nodes = true) ?(cables = true) ?(switches = true) ~seed ~mtbf
    ~mttr ~horizon topo =
  if mtbf <= 0.0 then invalid_arg "Faults.generate: mtbf must be positive";
  if mttr <= 0.0 then invalid_arg "Faults.generate: mttr must be positive";
  let acc = ref [] in
  let component klass id mk =
    let prng = component_prng ~seed ~klass ~id in
    let t = ref (Sim.Prng.exponential prng ~mean:mtbf) in
    while !t < horizon do
      let down = Sim.Prng.exponential prng ~mean:mttr in
      acc := { time = !t; kind = Fail; target = mk id } :: !acc;
      acc := { time = !t +. down; kind = Repair; target = mk id } :: !acc;
      t := !t +. down +. Sim.Prng.exponential prng ~mean:mtbf
    done
  in
  let each klass count mk =
    for id = 0 to count - 1 do
      component klass id mk
    done
  in
  if nodes then each 0 (Topology.num_nodes topo) (fun i -> Node i);
  if cables then begin
    each 1 (Topology.num_leaf_l2_cables topo) (fun i -> Leaf_cable i);
    each 2 (Topology.num_l2_spine_cables topo) (fun i -> L2_cable i)
  end;
  if switches then begin
    each 3 (Topology.num_leaves topo) (fun i -> Leaf_switch i);
    each 4 (Topology.num_l2 topo) (fun i -> L2_switch i);
    each 5 (Topology.num_spines topo) (fun i -> Spine i)
  end;
  scripted !acc

(* ------------------------------------------------------------------ *)
(* Scripted trace files                                                *)
(* ------------------------------------------------------------------ *)

let parse_line ~lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then Ok None
  else
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ time; kind; target; id ] -> (
        match
          ( float_of_string_opt time,
            (match kind with
            | "fail" -> Some Fail
            | "repair" -> Some Repair
            | _ -> None),
            int_of_string_opt id )
        with
        | Some time, Some kind, Some id -> (
            if time < 0.0 then
              Error (Printf.sprintf "line %d: negative event time" lineno)
            else
            match target_of_name target id with
            | Ok target -> Ok (Some { time; kind; target })
            | Error _ ->
                Error
                  (Printf.sprintf
                     "line %d: unknown target %s (node|leaf-cable|l2-cable|leaf|l2|spine)"
                     lineno target))
        | _ ->
            Error
              (Printf.sprintf "line %d: expected <time> fail|repair <target> <id>"
                 lineno))
    | _ ->
        Error
          (Printf.sprintf "line %d: expected <time> fail|repair <target> <id>"
             lineno)

let load path =
  try
    In_channel.with_open_text path (fun ic ->
        let rec go lineno acc =
          match In_channel.input_line ic with
          | None -> Ok (scripted (List.rev acc))
          | Some line -> (
              match parse_line ~lineno line with
              | Ok None -> go (lineno + 1) acc
              | Ok (Some e) -> go (lineno + 1) (e :: acc)
              | Error m -> Error m)
        in
        go 1 [])
  with Sys_error m -> Error m
