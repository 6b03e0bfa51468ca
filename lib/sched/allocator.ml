open Fattree

type verdict =
  | Alloc of Fattree.Alloc.t
  | No_fit
  | Gave_up

type sized_verdict =
  | Sized of { granted : int; alloc : Fattree.Alloc.t }
  | Sized_no_fit
  | Sized_gave_up

type resize_verdict =
  | Resized of Fattree.Alloc.t
  | No_resize

type t = {
  name : string;
  isolating : bool;
  budgeted : bool;
  probe_sized : State.t -> Trace.Job.t -> sized_verdict;
  try_resize :
    State.t -> Trace.Job.t -> current:Alloc.t -> target:int -> resize_verdict;
}

(* ------------------------------------------------------------------ *)
(* Sized probing, derived from a plain probe.                          *)
(* ------------------------------------------------------------------ *)

let lift_verdict ~granted = function
  | Alloc a -> Sized { granted; alloc = a }
  | No_fit -> Sized_no_fit
  | Gave_up -> Sized_gave_up

(* Take the preference if it fits; otherwise establish feasibility at
   the minimum (the only verdict that may be declared [Sized_no_fit] —
   it is monotone under claims exactly like a rigid no-fit, so the
   simulator's memo stays sound with the key at [min_size]), then
   binary-search the largest feasible size below the preference.  The
   search assumes feasibility is antitone in size, which holds for
   every bundled scheme; a non-monotone allocator would still return a
   feasible (just not maximal) grant, since the running best always
   carries a concrete allocation. *)
let derived_probe_sized probe st (j : Trace.Job.t) =
  match j.spec with
  | Trace.Job.Rigid _ -> lift_verdict ~granted:j.size (probe st j)
  | Trace.Job.Moldable { min_size; max_size = _; pref } -> (
      match probe st j with
      | Alloc a -> Sized { granted = pref; alloc = a }
      | (No_fit | Gave_up) as pref_fail ->
          if min_size = pref then lift_verdict ~granted:pref pref_fail
          else (
            match probe st (Trace.Job.at_size j min_size) with
            | No_fit -> Sized_no_fit
            | Gave_up -> Sized_gave_up
            | Alloc a_min ->
                let best = ref (min_size, a_min) in
                let lo = ref min_size and hi = ref pref in
                while !hi - !lo > 1 do
                  let mid = (!lo + !hi) / 2 in
                  match probe st (Trace.Job.at_size j mid) with
                  | Alloc a ->
                      lo := mid;
                      best := (mid, a)
                  | No_fit | Gave_up -> hi := mid
                done;
                let granted, alloc = !best in
                Sized { granted; alloc }))

(* ------------------------------------------------------------------ *)
(* Resizing                                                            *)
(* ------------------------------------------------------------------ *)

(* A resize verdict is a *replacement* allocation: the caller swaps by
   releasing the current allocation and claiming the replacement.  That
   swap re-claims every kept resource, which is only legal while none of
   them is covered by a live fault — so every path below refuses when
   the current allocation holds a failed cable or would keep a failed
   node. *)

let cables_healthy st (current : Alloc.t) =
  Array.for_all (fun c -> not (State.leaf_cable_failed st c)) current.leaf_cables
  && Array.for_all (fun c -> not (State.l2_cable_failed st c)) current.l2_cables

(* Shrink in place: keep every cable (and the bandwidth claim), drop
   failed nodes first, then the highest-indexed healthy ones.  Always
   feasible on a healthy-cabled allocation with enough healthy nodes —
   the shrink-recovery path relies on exactly this. *)
let shrink_in_place st (current : Alloc.t) ~target =
  if not (cables_healthy st current) then No_resize
  else
    let healthy =
      Array.of_seq
        (Seq.filter
           (fun n -> not (State.node_failed st n))
           (Array.to_seq current.nodes))
    in
    if Array.length healthy < target then No_resize
    else Resized { current with size = target; nodes = Array.sub healthy 0 target }

let alloc_healthy st (current : Alloc.t) =
  cables_healthy st current
  && Array.for_all (fun n -> not (State.node_failed st n)) current.nodes

(* Native grow for partition schemes: extend onto free nodes of leaves
   whose uplink cables the job already owns in full.  No cable changes,
   so a partition that was interference-free stays interference-free by
   construction.  [No_resize] when the owned leaves cannot supply the
   extra nodes — growth never migrates an isolated partition. *)
let grow_within_leaves st (current : Alloc.t) ~target =
  if not (alloc_healthy st current) then No_resize
  else if target <= Array.length current.nodes then
    Resized { current with size = target }
  else
    let topo = State.topo st in
    let m1 = Topology.m1 topo in
    let counts = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        let leaf = Topology.leaf_l2_cable_leaf topo c in
        Hashtbl.replace counts leaf
          (1 + Option.value (Hashtbl.find_opt counts leaf) ~default:0))
      current.leaf_cables;
    let own_leaves =
      Hashtbl.fold (fun leaf n acc -> if n = m1 then leaf :: acc else acc) counts []
      |> List.sort compare
    in
    let need = ref (target - Array.length current.nodes) in
    let added = ref [] in
    List.iter
      (fun leaf ->
        if !need > 0 then begin
          let mask = State.free_slot_mask st leaf in
          let first = Topology.leaf_first_node topo leaf in
          for slot = 0 to m1 - 1 do
            if !need > 0 && mask land (1 lsl slot) <> 0 then begin
              added := (first + slot) :: !added;
              decr need
            end
          done
        end)
      own_leaves;
    if !need > 0 then No_resize
    else
      Resized
        {
          current with
          size = target;
          nodes = Array.append current.nodes (Array.of_list (List.rev !added));
        }

(* Derived grow: renegotiate on the live state — briefly release the
   current allocation so a fresh probe can reuse (or relocate from) its
   resources, then restore it exactly.  Relocation is the point: the
   non-partition schemes have no cable set to grow within, so molding
   up means re-placing the job at the larger size. *)
let grow_by_reprobe probe st (j : Trace.Job.t) ~(current : Alloc.t) ~target =
  if not (alloc_healthy st current) then No_resize
  else begin
    State.release st current;
    let cand = probe st (Trace.Job.at_size j target) in
    State.unrelease st current;
    match cand with Alloc a -> Resized a | No_fit | Gave_up -> No_resize
  end

let derived_try_resize probe st (j : Trace.Job.t) ~(current : Alloc.t) ~target =
  if target < 1 then No_resize
  else if target = current.size then Resized current
  else if target < current.size then shrink_in_place st current ~target
  else grow_by_reprobe probe st j ~current ~target

(* Native resize for the partition schemes (Jigsaw, LC, LC+S): shrink
   in place, grow strictly within the partition's own leaves. *)
let resize_within_partition st (_ : Trace.Job.t) ~(current : Alloc.t) ~target =
  if target < 1 then No_resize
  else if target = current.size then Resized current
  else if target < current.size then shrink_in_place st current ~target
  else grow_within_leaves st current ~target

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let make ~name ~isolating ?(budgeted = false) ?try_resize probe =
  {
    name;
    isolating;
    budgeted;
    probe_sized = derived_probe_sized probe;
    try_resize = Option.value try_resize ~default:(derived_try_resize probe);
  }

let of_partition st ~bw p =
  Jigsaw_core.Partition.to_alloc (State.topo st) p ~bw

(* Lift a [Partition.probe]-returning search into a verdict, claiming
   the stated bandwidth. *)
let of_partition_probe st ~bw = function
  | Jigsaw_core.Partition.Found p -> Alloc (of_partition st ~bw p)
  | Jigsaw_core.Partition.Infeasible -> No_fit
  | Jigsaw_core.Partition.Exhausted -> Gave_up

let baseline =
  make ~name:"Baseline" ~isolating:false (fun st (j : Trace.Job.t) ->
      (* Unbudgeted first-fit scan: a [None] is always definitive. *)
      match Baselines.Baseline.get_allocation st ~job:j.id ~size:j.size with
      | Some a -> Alloc a
      | None -> No_fit)

let jigsaw =
  make ~name:"Jigsaw" ~isolating:true ~try_resize:resize_within_partition
    (fun st (j : Trace.Job.t) ->
      Jigsaw_core.Jigsaw.probe st ~job:j.id ~size:j.size
      |> of_partition_probe st ~bw:1.0)

let laas =
  make ~name:"LaaS" ~isolating:true (fun st (j : Trace.Job.t) ->
      Baselines.Laas.probe st ~job:j.id ~size:j.size
      |> of_partition_probe st ~bw:1.0)

let ta =
  make ~name:"TA" ~isolating:true (fun st (j : Trace.Job.t) ->
      (* TA's placement rules are first-fit scans with no budget. *)
      match Baselines.Ta.get_allocation st ~job:j.id ~size:j.size with
      | Some a -> Alloc a
      | None -> No_fit)

let lcs ?budget () =
  make ~name:"LC+S" ~isolating:true ~budgeted:true
    ~try_resize:resize_within_partition (fun st (j : Trace.Job.t) ->
      Jigsaw_core.Least_constrained.probe ?budget ~demand:j.bw_class st
        ~job:j.id ~size:j.size
      |> of_partition_probe st ~bw:j.bw_class)

let lc_exclusive ?budget () =
  make ~name:"LC" ~isolating:true ~budgeted:true
    ~try_resize:resize_within_partition (fun st (j : Trace.Job.t) ->
      Jigsaw_core.Least_constrained.probe ?budget st ~job:j.id ~size:j.size
      |> of_partition_probe st ~bw:1.0)

let all = [ baseline; lcs (); jigsaw; laas; ta ]
let isolating = [ ta; laas; jigsaw ]

let valid_names = List.map (fun a -> a.name) (lc_exclusive () :: all)

let by_name n =
  match List.find_opt (fun a -> a.name = n) (lc_exclusive () :: all) with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf "unknown scheduler %S (valid: %s)" n
           (String.concat "|" valid_names))

let of_cli n =
  if n = "all" then Ok all
  else
    match by_name n with
    | Ok a -> Ok [ a ]
    | Error _ ->
        Error
          (Printf.sprintf "unknown scheduler %S (valid: %s|all)" n
             (String.concat "|" valid_names))
