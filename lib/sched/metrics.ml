let table2_boundaries = [| 0.60; 0.80; 0.90; 0.95; 0.98 |]

type per_job = { job : Trace.Job.t; start_time : float; end_time : float }

type t = {
  trace_name : string;
  sched_name : string;
  scenario_name : string;
  cluster_nodes : int;
  num_jobs : int;
  rejected : int;
  stuck_pending : int;
  avg_utilization : float;
  alloc_utilization : float;
  inst_hist : int array;
  makespan : float;
  avg_turnaround_all : float;
  avg_turnaround_large : float;
  num_large : int;
  sched_time_total : float;
  sched_time_per_job : float;
  steady_start : float;
  steady_end : float;
  fault_events : int;
  interrupted : int;
  requeued : int;
  abandoned : int;
  lost_node_time : float;
  shrunk : int;
  grown : int;
  healthy_fraction : float;
  util_vs_healthy : float;
  series : (float * float) array;
}

let mean_turnaround jobs ~large_only =
  let selected =
    List.filter (fun r -> (not large_only) || Trace.Job.is_large r.job) jobs
  in
  let n = List.length selected in
  if n = 0 then (0.0, 0)
  else begin
    let total =
      List.fold_left
        (fun acc r -> acc +. (r.end_time -. r.job.Trace.Job.arrival))
        0.0 selected
    in
    (total /. float_of_int n, n)
  end

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(* ------------------------------------------------------------------ *)

(* A result row as one flat record, shared by the JSON encoder, the
   manifest decoder and the fingerprint below, whose digest depends on
   this field order.  The histogram is flattened to [inst_hist_<i>]
   keys so the line stays parseable by the flat [Obs.Json] reader; the
   (long) series is exported separately as CSV, and the row reads back
   as a function of it. *)
let row =
  let open Obs.Row in
  let+ trace_name = field "trace" str (fun m -> m.trace_name)
  and+ sched_name = field "sched" str (fun m -> m.sched_name)
  and+ scenario_name = field "scenario" str (fun m -> m.scenario_name)
  and+ cluster_nodes = field "cluster_nodes" int (fun m -> m.cluster_nodes)
  and+ num_jobs = field "num_jobs" int (fun m -> m.num_jobs)
  and+ rejected = field "rejected" int (fun m -> m.rejected)
  and+ stuck_pending = field "stuck_pending" int (fun m -> m.stuck_pending)
  and+ avg_utilization =
    field "avg_utilization" num (fun m -> m.avg_utilization)
  and+ alloc_utilization =
    field "alloc_utilization" num (fun m -> m.alloc_utilization)
  and+ inst_hist =
    list
      (List.init
         (Array.length table2_boundaries + 1)
         (fun i ->
           field (Printf.sprintf "inst_hist_%d" i) int (fun m ->
               m.inst_hist.(i))))
  and+ makespan = field "makespan" num (fun m -> m.makespan)
  and+ avg_turnaround_all =
    field "avg_turnaround_all" num (fun m -> m.avg_turnaround_all)
  and+ avg_turnaround_large =
    field "avg_turnaround_large" num (fun m -> m.avg_turnaround_large)
  and+ num_large = field "num_large" int (fun m -> m.num_large)
  and+ sched_time_total =
    field "sched_time_total" num (fun m -> m.sched_time_total)
  and+ sched_time_per_job =
    field "sched_time_per_job" num (fun m -> m.sched_time_per_job)
  and+ steady_start = field "steady_start" num (fun m -> m.steady_start)
  and+ steady_end = field "steady_end" num (fun m -> m.steady_end)
  and+ fault_events = field "fault_events" int (fun m -> m.fault_events)
  and+ interrupted = field "interrupted" int (fun m -> m.interrupted)
  and+ requeued = field "requeued" int (fun m -> m.requeued)
  and+ abandoned = field "abandoned" int (fun m -> m.abandoned)
  and+ lost_node_time = field "lost_node_time" num (fun m -> m.lost_node_time)
  (* The molding counters appear only when molding actually happened, so
     every pre-molding row (and its fingerprint) is byte-identical. *)
  and+ shrunk = field ~omit:0 "shrunk" int (fun m -> m.shrunk)
  and+ grown = field ~omit:0 "grown" int (fun m -> m.grown)
  and+ healthy_fraction =
    field "healthy_fraction" num (fun m -> m.healthy_fraction)
  and+ util_vs_healthy =
    field "util_vs_healthy" num (fun m -> m.util_vs_healthy)
  and+ series_points =
    field "series_points" int (fun m -> Array.length m.series)
  in
  fun series ->
    if Array.length series <> series_points then
      Error
        (Printf.sprintf "series has %d points, row says %d"
           (Array.length series) series_points)
    else
      Ok
        { trace_name; sched_name; scenario_name; cluster_nodes; num_jobs;
          rejected; stuck_pending; avg_utilization; alloc_utilization;
          inst_hist = Array.of_list inst_hist; makespan; avg_turnaround_all;
          avg_turnaround_large; num_large; sched_time_total;
          sched_time_per_job; steady_start; steady_end; fault_events;
          interrupted; requeued; abandoned; lost_node_time; shrunk; grown;
          healthy_fraction; util_vs_healthy; series }

let json_fields m = Obs.Row.fields row m

(* Extras (wall-clock, domain count, ...) go last so the simulated
   fields keep their historical positions; the fingerprint never sees
   them — it reads [json_fields] directly. *)
let to_json_string ?(extra = []) m =
  let b = Buffer.create 512 in
  Obs.Json.write b (Obs.Row.fields ~tail:extra row m);
  Buffer.contents b

(* The behavioural digest: every simulated quantity, including the full
   utilization series, but nothing wall-clock — [sched_time_*] vary
   from run to run, so including them would make the "tracing changes
   nothing" equality test vacuous. *)
let fingerprint m =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, v) ->
      if k <> "sched_time_total" && k <> "sched_time_per_job" then begin
        Buffer.add_string b k;
        Buffer.add_char b '=';
        (match v with
        | Obs.Json.Str s -> Buffer.add_string b s
        | Obs.Json.Num x -> Buffer.add_string b (Printf.sprintf "%.17g" x));
        Buffer.add_char b '\n'
      end)
    (json_fields m);
  Array.iter
    (fun (t, u) -> Buffer.add_string b (Printf.sprintf "%.17g,%.17g\n" t u))
    m.series;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A result row must come back bit-identical so a resumed sweep can
   re-verify the stored fingerprint: [%h] hex-float pairs are exact by
   construction, and free of the characters the flat JSON writer
   escapes. *)
let series = Obs.Row.(packed (pair_entry hex_entry hex_entry))

let write_series_csv oc m =
  output_string oc "time,utilization\n";
  Array.iter
    (fun (t, u) -> Printf.fprintf oc "%.17g,%.17g\n" t u)
    m.series

let pp_row ppf m =
  Format.fprintf ppf
    "%-10s %-8s %-6s util=%5.1f%% (held %5.1f%%) makespan=%11.0f tat=%10.0f tat100=%10.0f sched=%.5fs/job"
    m.trace_name m.sched_name m.scenario_name
    (100.0 *. m.avg_utilization)
    (100.0 *. m.alloc_utilization)
    m.makespan m.avg_turnaround_all m.avg_turnaround_large m.sched_time_per_job;
  (* The failure layer is pay-for-what-you-use: a zero-fault run prints
     the exact line it always did. *)
  if m.fault_events > 0 then
    Format.fprintf ppf
      " | faults=%d healthy=%5.2f%% util/healthy=%5.1f%% interrupted=%d requeued=%d abandoned=%d lost=%.0f node-s"
      m.fault_events
      (100.0 *. m.healthy_fraction)
      (100.0 *. m.util_vs_healthy)
      m.interrupted m.requeued m.abandoned m.lost_node_time;
  if m.shrunk > 0 || m.grown > 0 then
    Format.fprintf ppf " | resized: shrunk=%d grown=%d" m.shrunk m.grown;
  (* A wedged queue is a result, not a footnote: jobs neither ran nor
     were rejected, and no other number accounts for them. *)
  if m.stuck_pending > 0 then
    Format.fprintf ppf " | STUCK=%d jobs still pending at end" m.stuck_pending

(* All result printing funnels through here: one formatter, two faces.
   [Human] is the historical one-line row; [Json] is one flat JSON
   object per row, line-oriented so downstream tooling can stream it. *)
type format = Human | Json

let pp ~format ppf m =
  match format with
  | Human -> pp_row ppf m
  | Json -> Format.pp_print_string ppf (to_json_string m)
