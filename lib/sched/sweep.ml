(* Parallel sweep cells.  A cell is a self-contained simulation: its
   [run_cell] builds every mutable structure (cluster state, queues,
   memos, PRNGs, profile registry) from scratch, so cells can run on any
   domain in any order.  Determinism then only needs the merge to be
   slot-indexed — which [Par.Pool.run_cells] guarantees — plus profile
   registries combined in cell order, never domain order.

   A sweep can journal completed cells to a manifest: one flat JSON row
   per cell carrying the cell's stable id, its fingerprint and every
   result field, appended (under a mutex) the moment the cell finishes.
   A re-run against the same manifest skips every row whose fingerprint
   still verifies and re-runs only the missing cells, merging restored
   and fresh results in cell order — so an interrupted sweep resumes
   instead of restarting. *)

type cell = {
  id : string;
  label : string;
  cfg : Simulator.config;
  workload : Trace.Workload.t;
  profile : bool;
}

(* The fault axis of a cell id.  Fault traces are too big to inline, so
   a faulty cell is tagged by a short digest over its full event list
   and resilience policy — same trace and policy, same tag, on every
   run and every machine. *)
let fault_tag ~faults ~resilience =
  if Trace.Faults.is_empty faults && resilience = Simulator.no_resilience then
    "healthy"
  else begin
    let b = Buffer.create 256 in
    Array.iter
      (fun (e : Trace.Faults.event) ->
        Buffer.add_string b
          (Printf.sprintf "%.17g %s %s %d;" e.time
             (Trace.Faults.kind_name e.kind)
             (Trace.Faults.target_name e.target)
             (Trace.Faults.target_id e.target)))
      (Trace.Faults.events faults);
    let r = resilience in
    Buffer.add_string b
      (Printf.sprintf "%b %.17g %d %b" r.Simulator.requeue
         r.Simulator.resubmit_delay r.Simulator.max_retries
         r.Simulator.charge_lost_work);
    (* Appended only when set, so every pre-existing tag (and thus cell
       id, manifest key and baseline fingerprint listing) is unchanged
       for runs that never enable shrink recovery. *)
    if r.Simulator.shrink then Buffer.add_string b " shrink";
    String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 8
  end

(* Stable identity of a cell: every axis that can change the metrics
   fingerprint, none that cannot (profiling, labels).  This is the key
   manifests and CLI fingerprint listings are indexed by, so it must not
   depend on grid position. *)
let cell_id c =
  let cfg = c.cfg in
  let base =
    Printf.sprintf "%s#%d/%s/%s:s%d/%s" c.workload.Trace.Workload.name
      (Array.length c.workload.Trace.Workload.jobs)
      cfg.allocator.Allocator.name
      (Trace.Scenario.name cfg.scenario)
      cfg.scenario_seed
      (fault_tag ~faults:cfg.faults ~resilience:cfg.resilience)
  in
  let extras =
    (if cfg.backfill_window <> 50 then
       [ Printf.sprintf "bw%d" cfg.backfill_window ]
     else [])
    @ if not cfg.backfill then [ "fifo" ] else []
  in
  match extras with [] -> base | _ -> base ^ "," ^ String.concat "," extras

let cell ?label ?(profile = false) cfg workload =
  let label =
    match label with
    | Some l -> l
    | None ->
        Printf.sprintf "%s/%s" workload.Trace.Workload.name
          cfg.Simulator.allocator.Allocator.name
  in
  let c = { id = ""; label; cfg; workload; profile } in
  { c with id = cell_id c }

type result = {
  metrics : Metrics.t;
  prof : Obs.Prof.t option;
  net : Routing.Telemetry.summary option;
  wall_s : float;
  restored : bool;
}

let run_cell c =
  let t0 = Unix.gettimeofday () in
  (* The registry is created on the executing domain — it owns it until
     the pool joins, after which the coordinator may read and merge. *)
  let prof = if c.profile then Some (Obs.Prof.create ()) else None in
  let cfg =
    Simulator.Config.(c.cfg |> with_sink Obs.Sink.null |> with_prof prof)
  in
  let sim = Simulator.start cfg c.workload in
  let metrics, _ = Simulator.finish sim in
  let net = Simulator.net_summary sim in
  { metrics; prof; net; wall_s = Unix.gettimeofday () -. t0; restored = false }

(* ------------------------------------------------------------------ *)
(* Manifests                                                           *)
(* ------------------------------------------------------------------ *)

let manifest_magic = "jigsaw-sweep-manifest"
let manifest_version = 1

type manifest = { rows : (string * result) list; corrupt : int }

let manifest_line kind row x =
  let b = Buffer.create 4096 in
  Obs.Json.write b (("record", Obs.Json.Str kind) :: Obs.Row.fields row x);
  Buffer.add_char b '\n';
  Buffer.contents b

let manifest_header = Obs.Row.(field "version" int Fun.id)

(* A finished cell: its id, the fingerprint a resume re-verifies, the
   wall clock, the metrics row and its series, and the profile if one
   was taken.  Reads back as the restored result, or [None] when the
   fingerprint does not match the row's own data. *)
let manifest_cell =
  let open Obs.Row in
  let prof = option (conv str Obs.Prof.encode Obs.Prof.decode) in
  let+ id = field "id" str fst
  and+ fingerprint =
    field "fingerprint" str (fun (_, r) -> Metrics.fingerprint r.metrics)
  and+ wall_s = field "wall_s" num (fun (_, r) -> r.wall_s)
  and+ metrics = on (fun (_, r) -> r.metrics) Metrics.row
  and+ series = field "series" Metrics.series (fun (_, r) -> r.metrics.series)
  and+ prof = field ~omit:None "prof" prof (fun (_, r) -> r.prof) in
  match metrics series with
  | Ok metrics when Metrics.fingerprint metrics = fingerprint ->
      (* Telemetry summaries are not journaled — fingerprints do not
         cover them. *)
      Some (id, { metrics; prof; net = None; wall_s; restored = true })
  | _ -> None

let manifest_row c r = manifest_line "cell" manifest_cell (c.id, r)

(* Manifests are append-only journals written by possibly-killed
   processes, so loading is deliberately tolerant: a half-written or
   bit-flipped row is counted and skipped, never trusted — a row only
   resurrects a cell if its stored fingerprint matches one recomputed
   from the row's own data. *)
let load_manifest path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | content -> (
      let lines =
        String.split_on_char '\n' content |> List.filter (fun l -> l <> "")
      in
      match lines with
      | [] -> Error (Printf.sprintf "%s: empty manifest" path)
      | header :: rows -> (
          match Obs.Json.parse_line header with
          | exception Obs.Json.Parse_error m ->
              Error (Printf.sprintf "%s: bad manifest header: %s" path m)
          | h ->
              (try
                 if Obs.Json.str h "record" <> manifest_magic then
                   failwith "not a sweep manifest";
                 if Obs.Row.decode manifest_header h <> manifest_version then
                   failwith "unsupported manifest version"
               with
              | Obs.Json.Parse_error _ | Failure _ ->
                  raise
                    (Sys_error
                       (Printf.sprintf "%s: not a sweep manifest (bad header)"
                          path)));
              let parse_row line =
                match Obs.Json.parse_line line with
                | exception Obs.Json.Parse_error _ -> None
                | f -> (
                    try
                      if Obs.Json.str f "record" <> "cell" then None
                      else Obs.Row.decode manifest_cell f
                    with Obs.Json.Parse_error _ | Invalid_argument _ -> None)
              in
              let rows, corrupt =
                List.fold_left
                  (fun (acc, bad) line ->
                    match parse_row line with
                    | Some row -> (row :: acc, bad)
                    | None -> (acc, bad + 1))
                  ([], 0) rows
              in
              Ok { rows = List.rev rows; corrupt }))

let load_manifest path =
  try load_manifest path with Sys_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

(* Wrap the cell runner with a journaling hook.  The append happens on
   whichever domain finished the cell, so it is mutex-guarded; each row
   is a single write of a complete line, keeping a killed sweep's
   manifest readable up to its last finished cell. *)
let journaling_runner manifest_path =
  match manifest_path with
  | None -> run_cell
  | Some path ->
      if not (Sys.file_exists path) then
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc
              (manifest_line manifest_magic manifest_header manifest_version));
      let m = Mutex.create () in
      fun c ->
        let r = run_cell c in
        Mutex.protect m (fun () ->
            Out_channel.with_open_gen
              [ Open_wronly; Open_append; Open_creat ]
              0o644 path
              (fun oc -> Out_channel.output_string oc (manifest_row c r)));
        r

(* Split cells into (to-run, restored) against a manifest's verified
   rows, then stitch the two result sets back together in cell order so
   callers see the same array a from-scratch sweep produces. *)
let plan_resume manifest_path cells =
  match manifest_path with
  | None -> (cells, fun fresh -> fresh)
  | Some path when not (Sys.file_exists path) -> (cells, fun fresh -> fresh)
  | Some path ->
      let m =
        match load_manifest path with
        | Ok m -> m
        | Error msg -> invalid_arg (Printf.sprintf "sweep manifest: %s" msg)
      in
      let tbl = Hashtbl.create 64 in
      List.iter (fun (id, r) -> Hashtbl.replace tbl id r) m.rows;
      let to_run =
        Array.to_list cells
        |> List.filter (fun c -> not (Hashtbl.mem tbl c.id))
        |> Array.of_list
      in
      let stitch fresh =
        let next = ref 0 in
        Array.map
          (fun c ->
            match Hashtbl.find_opt tbl c.id with
            | Some r -> r
            | None ->
                let r = fresh.(!next) in
                incr next;
                r)
          cells
      in
      (to_run, stitch)

exception Interrupted

(* Cooperative cancellation: checked before each cell starts, never
   mid-cell, so every journaled row is a complete, verified run.  The
   raise rides the pool's error path — in-flight cells on other domains
   finish (and journal) before [Interrupted] reaches the caller, which
   is exactly what makes a [should_stop] sweep resumable. *)
let stoppable ?should_stop f =
  match should_stop with
  | None -> f
  | Some stop -> fun c -> if stop () then raise Interrupted else f c

let run ?manifest ?should_stop ~jobs cells =
  let jobs = if jobs = 0 then Par.Pool.default_jobs () else jobs in
  let to_run, stitch = plan_resume manifest cells in
  let f = stoppable ?should_stop (journaling_runner manifest) in
  stitch
    (if jobs <= 1 then Array.map f to_run
     else
       Par.Pool.with_pool ~size:jobs (fun p ->
           Par.Pool.run_cells p ~f to_run))

let merged_profile results =
  if not (Array.exists (fun r -> r.prof <> None) results) then None
  else begin
    let agg = Obs.Prof.create () in
    Array.iter
      (fun r ->
        match r.prof with
        | Some p -> Obs.Prof.merge_into ~into:agg p
        | None -> ())
      results;
    Some agg
  end

let grid ?(profile = false) ?(faults_for = fun _ -> Trace.Faults.none) ~full ()
    =
  List.concat_map
    (fun (e : Trace.Presets.entry) ->
      List.map
        (fun alloc ->
          cell ~profile
            (Simulator.Config.make ~faults:(faults_for e) ~radix:e.cluster_radix
               alloc)
            e.workload)
        Allocator.all)
    (Trace.Presets.all ~full)
  |> Array.of_list
