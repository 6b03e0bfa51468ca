open Fattree

type policy = Dmodk | Greedy | Jigsaw

let policy_name = function
  | Dmodk -> "dmodk"
  | Greedy -> "greedy"
  | Jigsaw -> "jigsaw"

let policy_of_name = function
  | "dmodk" -> Some Dmodk
  | "greedy" -> Some Greedy
  | "jigsaw" -> Some Jigsaw
  | _ -> None

type shape = Alltoall | Ring

let shape_name = function Alltoall -> "alltoall" | Ring -> "ring"

let shape_of_name = function
  | "alltoall" -> Some Alltoall
  | "ring" -> Some Ring
  | _ -> None

(* The job's communicating nodes, sorted ascending.  Padding schedulers
   (LaaS) hold more nodes than the job requested; traffic comes from the
   [size] lowest held ids — a deterministic stand-in for "the nodes the
   processes actually run on". *)
let comm_nodes (a : Alloc.t) =
  let nodes = Array.copy a.nodes in
  Array.sort compare nodes;
  if Array.length nodes > a.size then Array.sub nodes 0 a.size else nodes

(* The shape's flows over the sorted communicating nodes. *)
let flows shape nodes =
  let k = Array.length nodes in
  if k < 2 then []
  else
    match shape with
    | Ring -> List.init k (fun i -> (nodes.(i), nodes.((i + 1) mod k)))
    | Alltoall ->
        List.concat
          (List.init k (fun i ->
               List.filter_map
                 (fun j -> if i = j then None else Some (nodes.(i), nodes.(j)))
                 (List.init k Fun.id)))

let route_alloc topo policy shape (a : Alloc.t) =
  let flows = flows shape (comm_nodes a) in
  match policy with
  | Dmodk -> Dmodk.routes topo flows
  | Greedy -> Greedy.route topo flows
  | Jigsaw ->
      (* The Figure-5 router over the allocation's own cables; flows it
         cannot carry (a Baseline allocation holds no cables) fall back
         to D-mod-k. *)
      let view = Partition_routing.view topo a in
      List.map
        (fun (src, dst) ->
          match Partition_routing.route view ~src ~dst with
          | Ok p -> p
          | Error _ -> Dmodk.path topo ~src ~dst)
        flows

(* Per-job contribution to the routing-independent lower bound: how many
   inter-leaf flows leave/enter each leaf. *)
let lb_deltas topo paths =
  let tbl : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let bump leaf dout din =
    let o, i = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl leaf) in
    Hashtbl.replace tbl leaf (o + dout, i + din)
  in
  let inter = ref 0 in
  List.iter
    (fun (p : Path.t) ->
      match p.hops with
      | [] -> ()
      | _ ->
          incr inter;
          bump (Topology.node_leaf topo p.src) 1 0;
          bump (Topology.node_leaf topo p.dst) 0 1)
    paths;
  (!inter, Hashtbl.fold (fun l (o, i) acc -> (l, o, i) :: acc) tbl [])

type route_info = { ri_flows : int; ri_channels : int; ri_interfered : int }

type sample = {
  s_max_load : int;
  s_leaf_max : int;
  s_l2_max : int;
  s_shared : int;
  s_interfered : int;
  s_total_flows : int;
  s_jobs : int;
  s_lower_bound : int;
}

type t = {
  topo : Topology.t;
  policy : policy;
  shape : shape;
  index : Congestion.Index.t;
  (* Incremental lower bound: per-leaf inter-leaf flow counters and a
     max tracker over them. *)
  lb_out : int array;
  lb_in : int array;
  lb_max : Congestion.Maxtrack.t;
  mutable lb_flows : int;
  job_lb : (int, int * (int * int * int) list) Hashtbl.t;
      (** job -> (inter-leaf flows, (leaf, out, in) deltas) for retract *)
  (* Time-weighted series and peaks. *)
  mutable t0 : float;
  mutable last_t : float;
  mutable area_max : float;
  mutable area_interfered : float;
  mutable area_total : float;
  mutable peak_max : int;
  mutable peak_leaf : int;
  mutable peak_l2 : int;
  mutable peak_shared : int;
  mutable peak_interfered : int;
  mutable peak_lb : int;
  mutable routed_jobs : int;
  mutable routed_flows : int;
}

let create topo ~policy ~shape ~now =
  {
    topo;
    policy;
    shape;
    index = Congestion.Index.create topo;
    lb_out = Array.make (Topology.num_leaves topo) 0;
    lb_in = Array.make (Topology.num_leaves topo) 0;
    lb_max = Congestion.Maxtrack.create ();
    lb_flows = 0;
    job_lb = Hashtbl.create 64;
    t0 = now;
    last_t = now;
    area_max = 0.;
    area_interfered = 0.;
    area_total = 0.;
    peak_max = 0;
    peak_leaf = 0;
    peak_l2 = 0;
    peak_shared = 0;
    peak_interfered = 0;
    peak_lb = 0;
    routed_jobs = 0;
    routed_flows = 0;
  }


let lower_bound t =
  if t.lb_flows = 0 then 0
  else
    let m1 = Topology.m1 t.topo in
    (Congestion.Maxtrack.max t.lb_max + m1 - 1) / m1

let sample t =
  let r = Congestion.Index.report t.index in
  {
    s_max_load = r.max_load;
    s_leaf_max = Congestion.Index.max_load_leaf t.index;
    s_l2_max = Congestion.Index.max_load_l2 t.index;
    s_shared = r.shared_channels;
    s_interfered = r.interfered_flows;
    s_total_flows = r.total_flows;
    s_jobs = Congestion.Index.jobs t.index;
    s_lower_bound = lower_bound t;
  }

(* Settle the time-weighted areas up to [now] under the pre-mutation
   values, then let the caller mutate; peaks are refreshed afterwards. *)
let advance t ~now =
  let dt = now -. t.last_t in
  if dt > 0. then begin
    let r = Congestion.Index.report t.index in
    t.area_max <- t.area_max +. (float_of_int r.max_load *. dt);
    t.area_interfered <-
      t.area_interfered +. (float_of_int r.interfered_flows *. dt);
    t.area_total <- t.area_total +. (float_of_int r.total_flows *. dt);
    t.last_t <- now
  end

let refresh_peaks t =
  let s = sample t in
  if s.s_max_load > t.peak_max then t.peak_max <- s.s_max_load;
  if s.s_leaf_max > t.peak_leaf then t.peak_leaf <- s.s_leaf_max;
  if s.s_l2_max > t.peak_l2 then t.peak_l2 <- s.s_l2_max;
  if s.s_shared > t.peak_shared then t.peak_shared <- s.s_shared;
  if s.s_interfered > t.peak_interfered then
    t.peak_interfered <- s.s_interfered;
  if s.s_lower_bound > t.peak_lb then t.peak_lb <- s.s_lower_bound

let apply_lb t sign (inter, deltas) =
  t.lb_flows <- t.lb_flows + (sign * inter);
  List.iter
    (fun (leaf, dout, din) ->
      if dout <> 0 then begin
        let v = t.lb_out.(leaf) in
        t.lb_out.(leaf) <- v + (sign * dout);
        Congestion.Maxtrack.move t.lb_max ~from_:v ~to_:(v + (sign * dout))
      end;
      if din <> 0 then begin
        let v = t.lb_in.(leaf) in
        t.lb_in.(leaf) <- v + (sign * din);
        Congestion.Maxtrack.move t.lb_max ~from_:v ~to_:(v + (sign * din))
      end)
    deltas

let job_info t job =
  match Congestion.Index.job_stats t.index job with
  | Some (f, c, i) -> { ri_flows = f; ri_channels = c; ri_interfered = i }
  | None -> { ri_flows = 0; ri_channels = 0; ri_interfered = 0 }

let add_job t ~now (a : Alloc.t) =
  advance t ~now;
  let paths = route_alloc t.topo t.policy t.shape a in
  Congestion.Index.add_job t.index ~job:a.job paths;
  let lb = lb_deltas t.topo paths in
  Hashtbl.replace t.job_lb a.job lb;
  apply_lb t 1 lb;
  t.routed_jobs <- t.routed_jobs + 1;
  t.routed_flows <- t.routed_flows + List.length paths;
  refresh_peaks t;
  job_info t a.job

let remove_job t ~now job =
  advance t ~now;
  let info = job_info t job in
  Congestion.Index.remove_job t.index job;
  (match Hashtbl.find_opt t.job_lb job with
  | Some lb ->
      Hashtbl.remove t.job_lb job;
      apply_lb t (-1) lb
  | None -> ());
  refresh_peaks t;
  info

type summary = {
  sm_policy : policy;
  sm_shape : shape;
  sm_routed_jobs : int;
  sm_routed_flows : int;
  sm_peak_max_load : int;
  sm_mean_max_load : float;  (** time-weighted *)
  sm_peak_leaf : int;
  sm_peak_l2 : int;
  sm_peak_shared : int;
  sm_peak_interfered : int;
  sm_peak_lower_bound : int;
  sm_interfered_fraction : float;
      (** time-weighted interfered flows over time-weighted total flows *)
  sm_elapsed : float;
}

let summary t ~now =
  advance t ~now;
  let elapsed = t.last_t -. t.t0 in
  {
    sm_policy = t.policy;
    sm_shape = t.shape;
    sm_routed_jobs = t.routed_jobs;
    sm_routed_flows = t.routed_flows;
    sm_peak_max_load = t.peak_max;
    sm_mean_max_load = (if elapsed > 0. then t.area_max /. elapsed else 0.);
    sm_peak_leaf = t.peak_leaf;
    sm_peak_l2 = t.peak_l2;
    sm_peak_shared = t.peak_shared;
    sm_peak_interfered = t.peak_interfered;
    sm_peak_lower_bound = t.peak_lb;
    sm_interfered_fraction =
      (if t.area_total > 0. then t.area_interfered /. t.area_total else 0.);
    sm_elapsed = elapsed;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "net telemetry (routing=%s, flows=%s): %d jobs / %d flows routed@\n"
    (policy_name s.sm_policy) (shape_name s.sm_shape) s.sm_routed_jobs
    s.sm_routed_flows;
  Format.fprintf ppf
    "  peak max channel load %d (leaf %d, l2 %d); time-weighted mean %.3f; \
     peak lower bound %d@\n"
    s.sm_peak_max_load s.sm_peak_leaf s.sm_peak_l2 s.sm_mean_max_load
    s.sm_peak_lower_bound;
  Format.fprintf ppf
    "  peak shared channels %d; peak interfered flows %d; interfered flow \
     fraction %.4f@\n"
    s.sm_peak_shared s.sm_peak_interfered s.sm_interfered_fraction
