(* Probe-level golden: the verdict and allocation of every
   [Jigsaw.probe] and [Least_constrained.probe] call over a fixed
   seeded claim/release/fail/repair history, folded into one digest.

   Each step of the history is followed by twelve probes of one random
   size up to the free node count: both allocators at demands 1.0 and
   0.25, each with search budgets of 4 and 40 steps and with its
   default budget.  The small budgets end searches [Exhausted] (Jigsaw's
   pod backtracking needs the 4-step one), so any change to how a
   search charges its budget — not only to what it finds — moves the
   digest.  Claims are
   drawn from the same probes, so the history itself depends on every
   allocation found.  The pinned digests were computed before the
   count-first prechecks and the list-free materialization; allocator
   speed-ups must leave them unchanged.

   A third digest replays its own radix-8 history through [Laas.probe]
   alone: it places with LaaS and follows each step with three LaaS
   probes (budgets 4, 40 and the default), so LaaS's single-pod pass
   and its padded whole-leaf search are pinned apart from the other
   two digests.

   A fourth digest replays a radix-48 history whose requests are drawn
   from Synth-16@48's job sizes (hundreds to thousands of nodes), so
   multi-pod partitions with remainder trees and remainder leaves are
   common.  Each step places with Jigsaw, LC+S at demand 0.25 or LaaS
   and is followed by all three at budgets 4, 40 and their defaults;
   every found partition is also flattened through [Partition.to_alloc]
   into the digest, pinning the allocation's ids and their order. *)

open Fattree
open Jigsaw_core

let add_ints buf a =
  Array.iter
    (fun i ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ',')
    a;
  Buffer.add_char buf ';'

let add_leaf buf (la : Partition.leaf_alloc) =
  Buffer.add_string buf (Printf.sprintf "L%d:" la.leaf);
  add_ints buf la.nodes;
  add_ints buf la.l2_indices

let add_tree buf (tr : Partition.tree_alloc) =
  Buffer.add_string buf (Printf.sprintf "T%d{" tr.pod);
  Array.iter (add_leaf buf) tr.full_leaves;
  (match tr.rem_leaf with
  | Some la ->
      Buffer.add_char buf 'r';
      add_leaf buf la
  | None -> ());
  Array.iter
    (fun (i, s) ->
      Buffer.add_string buf (Printf.sprintf "S%d:" i);
      add_ints buf s)
    tr.spine_sets;
  Buffer.add_char buf '}'

let add_probe buf = function
  | Partition.Infeasible -> Buffer.add_string buf "I\n"
  | Partition.Exhausted -> Buffer.add_string buf "E\n"
  | Partition.Found p ->
      Buffer.add_string buf (Printf.sprintf "F%d/%d" p.job p.size);
      Array.iter (add_tree buf) p.full_trees;
      (match p.rem_tree with
      | Some tr ->
          Buffer.add_char buf 'R';
          add_tree buf tr
      | None -> ());
      Buffer.add_char buf '\n'

let add_alloc buf (a : Alloc.t) =
  Buffer.add_char buf 'A';
  add_ints buf a.nodes;
  add_ints buf a.leaf_cables;
  add_ints buf a.l2_cables;
  Buffer.add_char buf '\n'

type fault = Node of int | Leaf_cable of int | L2_cable of int

(* Replays the history on a fresh radix-[radix] state; returns the
   digest and a test for which (allocator, verdict) pairs occurred.
   [place ~record ~prng st ~job size] finds the partition a placing step
   claims and the bandwidth it claims at; [probes ~record st ~job size]
   are the probes that follow every step.  Both pass each result through
   [record].  With [sizes], every request size is drawn from it rather
   than uniformly; with [flatten], each found partition's [to_alloc] is
   digested too. *)
let run ~radix ~seed ~steps ?sizes ?(flatten = false) ~place ~probes () =
  let topo = Topology.of_radix radix in
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed in
  let buf = Buffer.create 4096 in
  let seen = Hashtbl.create 16 in
  let record alloc r =
    let verdict =
      match r with
      | Partition.Found p when p.rem_tree <> None -> `Remainder
      | Found p when Partition.kind p = Three_level -> `Three_level
      | Found _ -> `Two_level
      | Infeasible -> `Infeasible
      | Exhausted -> `Exhausted
    in
    Hashtbl.replace seen (alloc, verdict) ();
    (* Remainders that come before a full tree or full leaf in id order. *)
    (match r with
    | Partition.Found p ->
        let trees = Array.to_list p.full_trees @ Option.to_list p.rem_tree in
        (match p.rem_tree with
        | Some rt
          when Array.exists
                 (fun (tr : Partition.tree_alloc) -> tr.pod > rt.pod)
                 p.full_trees ->
            Hashtbl.replace seen (alloc, `Rem_tree_first) ()
        | _ -> ());
        if
          List.exists
            (fun (tr : Partition.tree_alloc) ->
              match tr.rem_leaf with
              | Some rl ->
                  Array.exists
                    (fun (la : Partition.leaf_alloc) -> la.leaf > rl.leaf)
                    tr.full_leaves
              | None -> false)
            trees
        then Hashtbl.replace seen (alloc, `Rem_leaf_first) ()
    | _ -> ());
    add_probe buf r;
    (match r with
    | Partition.Found p when flatten ->
        add_alloc buf (Partition.to_alloc topo p ~bw:1.0)
    | _ -> ());
    r
  in
  let live = ref [] and faults = ref [] in
  let n = Topology.num_nodes topo in
  let pick l = List.nth l (Sim.Prng.int prng ~bound:(List.length l)) in
  let remove x l = List.filter (fun y -> y != x) l in
  let draw ~hi =
    match sizes with
    | None -> Sim.Prng.int_in prng ~lo:1 ~hi
    | Some s -> s.(Sim.Prng.int prng ~bound:(Array.length s))
  in
  for job = 1 to steps do
    let action = Sim.Prng.int prng ~bound:100 in
    if action < 20 && !live <> [] then begin
      let a = pick !live in
      State.release st a;
      live := remove a !live
    end
    else if action < 23 then begin
      let f =
        match Sim.Prng.int prng ~bound:3 with
        | 0 -> Node (Sim.Prng.int prng ~bound:n)
        | 1 ->
            Leaf_cable
              (Sim.Prng.int prng ~bound:(Topology.num_leaf_l2_cables topo))
        | _ ->
            L2_cable
              (Sim.Prng.int prng ~bound:(Topology.num_l2_spine_cables topo))
      in
      (match f with
      | Node i -> State.fail_node st i
      | Leaf_cable c -> State.fail_leaf_cable st c
      | L2_cable c -> State.fail_l2_cable st c);
      faults := f :: !faults
    end
    else if action < 30 && !faults <> [] then begin
      let f = pick !faults in
      (match f with
      | Node i -> State.repair_node st i
      | Leaf_cable c -> State.repair_leaf_cable st c
      | L2_cable c -> State.repair_l2_cable st c);
      faults := remove f !faults
    end
    else begin
      let size = draw ~hi:(n / 8) in
      let r, bw = place ~record ~prng st ~job size in
      match r with
      | Partition.Found p ->
          let a = Partition.to_alloc topo p ~bw in
          State.claim_exn st a;
          live := a :: !live
      | Infeasible | Exhausted -> ()
    end;
    let size = draw ~hi:(max 1 (State.total_free_nodes st)) in
    probes ~record st ~job size
  done;
  let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  (digest, Hashtbl.mem seen)

let budgets = [ Some 4; Some 40; None ]

(* Jigsaw and LC: a placing step draws its demand, and every step is
   followed by both allocators at both demands and every budget. *)
let jigsaw ~record ~demand ?budget st ~job size =
  record `Jigsaw (Jigsaw.probe ~demand ?budget st ~job ~size)

let lc ~record ~demand ?budget st ~job size =
  record `Lc (Least_constrained.probe ~demand ?budget st ~job ~size)

let place_jigsaw_lc ~record ~prng st ~job size =
  let bw = if Sim.Prng.bool prng then 1.0 else 0.25 in
  let r =
    if bw = 1.0 then jigsaw ~record ~demand:1.0 st ~job size
    else lc ~record ~demand:0.25 st ~job size
  in
  (r, bw)

let probe_jigsaw_lc ~record st ~job size =
  List.iter
    (fun demand ->
      List.iter
        (fun budget ->
          ignore (jigsaw ~record ~demand ?budget st ~job size);
          ignore (lc ~record ~demand ?budget st ~job size))
        budgets)
    [ 1.0; 0.25 ]

let laas ~record ?budget st ~job size =
  record `Laas (Baselines.Laas.probe ?budget st ~job ~size)

let place_laas ~record ~prng:_ st ~job size = (laas ~record st ~job size, 1.0)

let probe_laas ~record st ~job size =
  List.iter (fun budget -> ignore (laas ~record ?budget st ~job size)) budgets

(* The radix-48 history: each step places with one of Jigsaw, LC+S at
   demand 0.25 and LaaS, and is followed by all three at every budget. *)
let place_machine ~record ~prng st ~job size =
  match Sim.Prng.int prng ~bound:3 with
  | 0 -> (jigsaw ~record ~demand:1.0 st ~job size, 1.0)
  | 1 -> (lc ~record ~demand:0.25 st ~job size, 0.25)
  | _ -> (laas ~record st ~job size, 1.0)

let probe_machine ~record st ~job size =
  List.iter
    (fun budget ->
      ignore (jigsaw ~record ~demand:1.0 ?budget st ~job size);
      ignore (lc ~record ~demand:0.25 ?budget st ~job size);
      ignore (laas ~record ?budget st ~job size))
    budgets

let synth16_48_sizes () =
  let e = Option.get (Trace.Presets.by_name ~full:false "Synth-16@48") in
  Array.map (fun (j : Trace.Job.t) -> j.size) e.workload.Trace.Workload.jobs

let check ~radix ~seed ~steps ?sizes ?flatten ?(place = place_jigsaw_lc)
    ?(probes = probe_jigsaw_lc)
    ?(allocators = [ (`Jigsaw, "Jigsaw"); (`Lc, "LC") ]) ?(unreached = [])
    ~digest () =
  let sizes = Option.map (fun f -> f ()) sizes in
  let d, seen = run ~radix ~seed ~steps ?sizes ?flatten ~place ~probes () in
  (* Each allocator must reach every verdict and every partition form,
     including remainders that sort before a full tree or leaf (which
     flattening must merge into place), or the digest pins less than it
     claims to.  [unreached] lists the (allocator, form) pairs a history
     is exempt from. *)
  List.iter
    (fun (alloc, name) ->
      List.iter
        (fun (verdict, what) ->
          if not (List.mem (alloc, verdict) unreached) then
            Alcotest.(check bool)
              (name ^ " " ^ what) true (seen (alloc, verdict)))
        [
          (`Two_level, "two-level");
          (`Three_level, "three-level without remainder");
          (`Remainder, "with remainder tree");
          (`Infeasible, "Infeasible");
          (`Exhausted, "Exhausted");
          (`Rem_tree_first, "remainder tree in a lower pod than a full tree");
          (`Rem_leaf_first, "remainder leaf below a full leaf of its tree");
        ])
    allocators;
  Alcotest.(check string) (Printf.sprintf "radix %d digest" radix) digest d

let suite =
  [
    Alcotest.test_case "radix 8 probe digest" `Quick
      (check ~radix:8 ~seed:11 ~steps:600
         ~digest:"3cb31a74b12d733b26a46c4611f5e68f");
    Alcotest.test_case "radix 12 probe digest" `Quick
      (check ~radix:12 ~seed:23 ~steps:400
         ~digest:"18c9e68e1de18bada74fc92aa11f0a99");
    Alcotest.test_case "radix 8 LaaS probe digest" `Quick
      (check ~radix:8 ~seed:37 ~steps:600 ~place:place_laas ~probes:probe_laas
         ~allocators:[ (`Laas, "LaaS") ]
         ~digest:"c864765c4447d07f4c2a87062439746d");
    Alcotest.test_case "radix 48 machine-scale probe digest" `Quick
      (check ~radix:48 ~seed:48 ~steps:150 ~sizes:synth16_48_sizes
         ~flatten:true ~place:place_machine ~probes:probe_machine
         ~allocators:[ (`Jigsaw, "Jigsaw"); (`Lc, "LC+S"); (`Laas, "LaaS") ]
           (* Jigsaw's dense-first shapes land on whole trees only at
              sizes that are multiples of the shape, which Synth-16@48's
              sizes (multiples of 27) rarely are. *)
         ~unreached:[ (`Jigsaw, `Three_level) ]
         ~digest:"fdf8a40808ec526344c073367fa33a45");
  ]
