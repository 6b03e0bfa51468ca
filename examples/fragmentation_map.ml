(* Fragmentation, visualized (the phenomena of paper Figure 2).

   Runs the same churny job sequence under each placement policy and
   renders the cluster occupancy.  Look for:
   - LaaS: padded leaves — nodes held by jobs that do not need them
     (internal node fragmentation);
   - TA: leaves with free nodes but exhausted uplinks — usable only by
     leaf-sized jobs (internal link fragmentation);
   - Jigsaw: packed pods with exact-sized partitions.

   Run with:  dune exec examples/fragmentation_map.exe *)

open Fattree

let topo = Topology.of_radix 8 (* small enough to read: 8 pods of 4x4 *)

(* A deterministic arrival/departure churn. *)
let churn (alloc : Sched.Allocator.t) =
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed:4242 in
  let live = ref [] in
  for id = 0 to 60 do
    let size = 1 + Sim.Prng.int prng ~bound:20 in
    let job = Trace.Job.v ~id ~size ~runtime:1.0 () in
    (match alloc.probe_sized st job with
    | Sized { alloc = a; _ } ->
        State.claim_exn st a;
        live := a :: !live
    | Sized_no_fit | Sized_gave_up -> ());
    (* Retire roughly a third of the jobs as we go. *)
    if Sim.Prng.float prng ~bound:1.0 < 0.35 && !live <> [] then begin
      let arr = Array.of_list !live in
      let victim = arr.(Sim.Prng.int prng ~bound:(Array.length arr)) in
      State.release st victim;
      live := List.filter (fun a -> a != victim) !live
    end
  done;
  (st, !live)

let () =
  List.iter
    (fun (alloc : Sched.Allocator.t) ->
      let st, live = churn alloc in
      Format.printf "=== %s ===@." alloc.name;
      let owners = Render.owners_of_allocs live in
      Render.node_map ~owners topo st Format.std_formatter ();
      Format.printf "links:@.";
      Render.link_map topo st Format.std_formatter ();
      Format.printf "%t@.@." (fun ppf -> Render.summary topo st ppf ());
      (* Internal fragmentation: nodes held beyond requests. *)
      let padding = List.fold_left (fun acc a -> acc + Alloc.padding a) 0 live in
      if padding > 0 then
        Format.printf "(%d nodes held but not requested — internal fragmentation)@.@."
          padding)
    [ Sched.Allocator.baseline; Sched.Allocator.jigsaw; Sched.Allocator.laas;
      Sched.Allocator.ta ]
