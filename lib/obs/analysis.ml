(* Trace analysis: fold a run's event stream back into per-job
   timelines, queue statistics and a fault post-mortem.  Everything here
   derives from the trace alone — the analyzer never sees the simulator,
   which is the point: the trace must be self-describing. *)

type fate = Completed | Abandoned | Rejected | Stuck

type timeline = {
  id : int;
  size : int;
  submitted : float;
  starts : (float * Event.ctx) list;  (** Chronological, one per attempt. *)
  kills : float list;
  completed : float option;
  fate : fate;
}

type fault_view = {
  f_time : float;
  f_target : string;
  f_id : int;
  f_nodes : int;
  f_killed : int list;  (** Job ids killed by this fault, in kill order. *)
}

type net_job = {
  nj_id : int;
  nj_flows : int;
  nj_peak_interfered : int;  (** Across all its route/retract events. *)
}

type net_view = {
  nv_samples : int;
  nv_routes : int;
  nv_retracts : int;
  nv_peak_max_load : int;
  nv_peak_shared : int;
  nv_peak_interfered : int;
  nv_peak_lower_bound : int;
  nv_jobs : net_job list;  (** Sorted by job id; every routed job. *)
}

type t = {
  meta : Event.run_meta option;
  events : int;
  timelines : timeline list;  (** Sorted by job id. *)
  queue_depths : float array;  (** One sample per [Pass_start]. *)
  waits : float array;  (** start - submission, per start (sim time). *)
  attempts : (string * (Event.probe_outcome * int) list) list;
      (** Per-context ("head"/"backfill") probe-outcome counts. *)
  faults : fault_view list;
  requeues : int;
  repairs : int;
  net : net_view option;  (** Present iff the run carried net events. *)
}

type builder = {
  mutable b_size : int;
  mutable b_submitted : float;
  mutable b_starts : (float * Event.ctx) list;
  mutable b_kills : float list;
  mutable b_completed : float option;
  mutable b_rejected : bool;
  mutable b_abandoned : bool;
}

let of_run (run : Reader.run) =
  let jobs : (int, builder) Hashtbl.t = Hashtbl.create 64 in
  let builder id =
    match Hashtbl.find_opt jobs id with
    | Some b -> b
    | None ->
        let b =
          {
            b_size = 0;
            b_submitted = nan;
            b_starts = [];
            b_kills = [];
            b_completed = None;
            b_rejected = false;
            b_abandoned = false;
          }
        in
        Hashtbl.replace jobs id b;
        b
  in
  let depths = ref [] and waits = ref [] in
  let attempt_counts : (Event.ctx * Event.probe_outcome, int ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let faults = ref [] and open_fault = ref None in
  let requeues = ref 0 and repairs = ref 0 in
  let net_samples = ref 0 and net_routes = ref 0 and net_retracts = ref 0 in
  let net_peak_max = ref 0
  and net_peak_shared = ref 0
  and net_peak_interfered = ref 0
  and net_peak_lb = ref 0 in
  let net_jobs : (int, int ref * int ref) Hashtbl.t = Hashtbl.create 32 in
  let close_fault () =
    match !open_fault with
    | None -> ()
    | Some f ->
        faults := { f with f_killed = List.rev f.f_killed } :: !faults;
        open_fault := None
  in
  List.iter
    (fun (e : Event.t) ->
      (* Kills (with their interleaved requeue/abandon outcomes) follow
         their Fail at the same instant; any other event kind closes the
         association window.  Net events ride along with the kills they
         retract for, so they must not close it either. *)
      (match (e.payload, !open_fault) with
      | ( ( Event.Fail _ | Event.Kill _ | Event.Requeue _ | Event.Abandon _
          | Event.Shrink_recover _ | Event.Net_route _
          | Event.Net_congestion_sample _ ),
          _ ) ->
          ()
      | _, Some _ -> close_fault ()
      | _, None -> ());
      match e.payload with
      | Event.Run_meta _ -> ()
      | Event.Arrival { job; size } ->
          let b = builder job in
          b.b_size <- size;
          if Float.is_nan b.b_submitted then b.b_submitted <- e.time
      | Event.Pass_start { pending } ->
          depths := float_of_int pending :: !depths
      | Event.Pass_end _ -> ()
      | Event.Attempt { ctx; outcome; _ } ->
          let key = (ctx, outcome) in
          let r =
            match Hashtbl.find_opt attempt_counts key with
            | Some r -> r
            | None ->
                let r = ref 0 in
                Hashtbl.replace attempt_counts key r;
                r
          in
          incr r
      | Event.Start { job; ctx; _ } ->
          let b = builder job in
          b.b_starts <- (e.time, ctx) :: b.b_starts;
          if not (Float.is_nan b.b_submitted) then
            waits := (e.time -. b.b_submitted) :: !waits
      | Event.Reservation_set _ | Event.Reservation_clear _ -> ()
      | Event.Complete { job; _ } -> (builder job).b_completed <- Some e.time
      | Event.Reject { job } -> (builder job).b_rejected <- true
      | Event.Fail { target; id; nodes; _ } ->
          close_fault ();
          open_fault :=
            Some
              {
                f_time = e.time;
                f_target = target;
                f_id = id;
                f_nodes = nodes;
                f_killed = [];
              }
      | Event.Repair _ -> incr repairs
      | Event.Kill { job; _ } ->
          let b = builder job in
          b.b_kills <- e.time :: b.b_kills;
          (match !open_fault with
          | Some f when f.f_time = e.time ->
              open_fault := Some { f with f_killed = job :: f.f_killed }
          | _ -> ())
      | Event.Requeue _ -> incr requeues
      | Event.Abandon { job; _ } -> (builder job).b_abandoned <- true
      (* Resizes change a grant, not a job's fate; the per-job timeline
         and fault association are unaffected. *)
      | Event.Resize _ | Event.Shrink_recover _ -> ()
      | Event.Net_route { job; retract; flows; interfered; _ } ->
          if retract then incr net_retracts else incr net_routes;
          let fl, pk =
            match Hashtbl.find_opt net_jobs job with
            | Some cell -> cell
            | None ->
                let cell = (ref 0, ref 0) in
                Hashtbl.replace net_jobs job cell;
                cell
          in
          fl := max !fl flows;
          pk := max !pk interfered
      | Event.Net_congestion_sample
          { max_load; shared; interfered; lower_bound; _ } ->
          incr net_samples;
          net_peak_max := max !net_peak_max max_load;
          net_peak_shared := max !net_peak_shared shared;
          net_peak_interfered := max !net_peak_interfered interfered;
          net_peak_lb := max !net_peak_lb lower_bound)
    run.events;
  close_fault ();
  let timelines =
    Hashtbl.fold
      (fun id b acc ->
        let fate =
          if b.b_completed <> None then Completed
          else if b.b_abandoned then Abandoned
          else if b.b_rejected then Rejected
          else Stuck
        in
        {
          id;
          size = b.b_size;
          submitted = b.b_submitted;
          starts = List.rev b.b_starts;
          kills = List.rev b.b_kills;
          completed = b.b_completed;
          fate;
        }
        :: acc)
      jobs []
    |> List.sort (fun a b -> compare a.id b.id)
  in
  let attempts =
    List.filter_map
      (fun ctx ->
        let rows =
          List.filter_map
            (fun o ->
              match Hashtbl.find_opt attempt_counts (ctx, o) with
              | Some r -> Some (o, !r)
              | None -> None)
            [ Event.Fit; Event.Infeasible; Event.Exhausted; Event.Memo_hit ]
        in
        if rows = [] then None else Some (Event.ctx_name ctx, rows))
      [ Event.Head; Event.Backfill ]
  in
  let net =
    if !net_routes = 0 && !net_retracts = 0 && !net_samples = 0 then None
    else
      Some
        {
          nv_samples = !net_samples;
          nv_routes = !net_routes;
          nv_retracts = !net_retracts;
          nv_peak_max_load = !net_peak_max;
          nv_peak_shared = !net_peak_shared;
          nv_peak_interfered = !net_peak_interfered;
          nv_peak_lower_bound = !net_peak_lb;
          nv_jobs =
            Hashtbl.fold
              (fun id (fl, pk) acc ->
                { nj_id = id; nj_flows = !fl; nj_peak_interfered = !pk } :: acc)
              net_jobs []
            |> List.sort (fun a b -> compare a.nj_id b.nj_id);
        }
  in
  {
    meta = run.meta;
    events = List.length run.events;
    timelines;
    queue_depths = Array.of_list (List.rev !depths);
    waits = Array.of_list (List.rev !waits);
    attempts;
    faults = List.rev !faults;
    requeues = !requeues;
    repairs = !repairs;
    net;
  }

let count_fate t fate =
  List.length (List.filter (fun tl -> tl.fate = fate) t.timelines)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

(* Wait-time buckets in simulated seconds: instant, minutes, fractions
   of an hour, hours, beyond. *)
let wait_boundaries = [| 1.0; 60.0; 600.0; 3600.0; 14400.0; 86400.0 |]

let wait_labels =
  [| "<1s"; "1s-1m"; "1m-10m"; "10m-1h"; "1h-4h"; "4h-24h"; ">24h" |]

let pp_percentiles ppf xs =
  if Array.length xs = 0 then Format.fprintf ppf "(no samples)"
  else
    Format.fprintf ppf "p50=%.1f p90=%.1f p99=%.1f max=%.1f"
      (Sim.Stats.percentile xs 50.) (Sim.Stats.percentile xs 90.)
      (Sim.Stats.percentile xs 99.)
      (snd (Sim.Stats.min_max xs))

let pp_summary ?(timeline = false) ppf t =
  (match t.meta with
  | Some m ->
      Format.fprintf ppf
        "run: trace=%s scheme=%s scenario=%s radix=%d nodes=%d jobs=%d@."
        m.trace m.scheme m.scenario m.radix m.nodes m.jobs
  | None -> Format.fprintf ppf "run: (no meta event)@.");
  Format.fprintf ppf "events: %d@." t.events;
  Format.fprintf ppf
    "jobs: %d seen, %d completed, %d abandoned, %d rejected, %d stuck@."
    (List.length t.timelines) (count_fate t Completed) (count_fate t Abandoned)
    (count_fate t Rejected) (count_fate t Stuck);
  Format.fprintf ppf "queue depth (%d passes): %a@."
    (Array.length t.queue_depths)
    pp_percentiles t.queue_depths;
  Format.fprintf ppf "wait (submit->start, sim s, %d starts): %a@."
    (Array.length t.waits) pp_percentiles t.waits;
  if Array.length t.waits > 0 then begin
    let h = Sim.Stats.Hist.create ~boundaries:wait_boundaries in
    Array.iter (Sim.Stats.Hist.add h) t.waits;
    let counts = Sim.Stats.Hist.counts h in
    Format.fprintf ppf "wait histogram:";
    Array.iteri
      (fun i c -> if c > 0 then Format.fprintf ppf " %s:%d" wait_labels.(i) c)
      counts;
    Format.fprintf ppf "@."
  end;
  List.iter
    (fun (ctx, rows) ->
      Format.fprintf ppf "attempts[%s]:" ctx;
      List.iter
        (fun (o, n) ->
          Format.fprintf ppf " %s=%d" (Event.outcome_name o) n)
        rows;
      Format.fprintf ppf "@.")
    t.attempts;
  if t.faults <> [] || t.requeues > 0 || t.repairs > 0 then begin
    Format.fprintf ppf
      "faults: %d injected, %d repairs, %d requeues@."
      (List.length t.faults) t.repairs t.requeues;
    List.iter
      (fun f ->
        Format.fprintf ppf
          "  t=%.1f %s %d (blast %d nodes): killed %d job(s)%s@." f.f_time
          f.f_target f.f_id f.f_nodes
          (List.length f.f_killed)
          (if f.f_killed = [] then ""
           else
             " ["
             ^ String.concat ", " (List.map string_of_int f.f_killed)
             ^ "]"))
      t.faults
  end;
  (match t.net with
  | None -> ()
  | Some nv ->
      Format.fprintf ppf
        "interference: %d routes, %d retracts, %d samples@." nv.nv_routes
        nv.nv_retracts nv.nv_samples;
      Format.fprintf ppf
        "  peak max channel load %d (lower bound %d); peak shared channels \
         %d; peak interfered flows %d@."
        nv.nv_peak_max_load nv.nv_peak_lower_bound nv.nv_peak_shared
        nv.nv_peak_interfered;
      let hit =
        List.filter (fun nj -> nj.nj_peak_interfered > 0) nv.nv_jobs
      in
      if hit <> [] then begin
        Format.fprintf ppf "  interfered jobs (%d):" (List.length hit);
        List.iter
          (fun nj ->
            Format.fprintf ppf " %d(%d/%d)" nj.nj_id nj.nj_peak_interfered
              nj.nj_flows)
          hit;
        Format.fprintf ppf "@."
      end);
  if timeline then begin
    Format.fprintf ppf "timelines:@.";
    List.iter
      (fun tl ->
        Format.fprintf ppf "  job %d (n=%d) submit=%.1f" tl.id tl.size
          tl.submitted;
        List.iter
          (fun (time, ctx) ->
            Format.fprintf ppf " %s=%.1f"
              (match ctx with Event.Head -> "start" | Event.Backfill -> "bf")
              time)
          tl.starts;
        List.iter (fun k -> Format.fprintf ppf " kill=%.1f" k) tl.kills;
        (match tl.completed with
        | Some c -> Format.fprintf ppf " done=%.1f" c
        | None -> ());
        let fate =
          match tl.fate with
          | Completed -> "completed"
          | Abandoned -> "abandoned"
          | Rejected -> "rejected"
          | Stuck -> "stuck"
        in
        Format.fprintf ppf " [%s]@." fate)
      t.timelines
  end
