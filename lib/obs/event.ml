(* Structured trace events.

   Every record carries *simulated* time and logical payloads only —
   never wall-clock durations — so the stream produced by a run is a
   pure function of (workload, scheme, seeds) and two runs with the same
   inputs emit byte-identical traces.  Wall-clock profiling lives in
   [Prof], outside the trace. *)

include Event_types

let outcome_name = function
  | Fit -> "fit"
  | Infeasible -> "infeasible"
  | Exhausted -> "exhausted"
  | Memo_hit -> "memo_hit"

let ctx_name = function Head -> "head" | Backfill -> "backfill"

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

open Row

(* One row per serialized kind, filed under its tag [ev]: the case's
   projection recognises the payloads the row writes.  Each row's
   [field] is pinned to the kind's record type, which is what lets the
   getters name their labels bare. *)

let run_meta =
  case "run" (function Run_meta r -> Some r | _ -> None)
  @@
  let field name c (get : run_meta -> _) = field name c get in
  let+ trace = field "trace" str (fun r -> r.trace)
  and+ scheme = field "scheme" str (fun r -> r.scheme)
  and+ scenario = field "scenario" str (fun r -> r.scenario)
  and+ radix = field "radix" int (fun r -> r.radix)
  and+ nodes = field "nodes" int (fun r -> r.nodes)
  and+ jobs = field "jobs" int (fun r -> r.jobs) in
  Run_meta { trace; scheme; scenario; radix; nodes; jobs }

let arrival =
  case "arrival" (function Arrival r -> Some r | _ -> None)
  @@
  let field name c (get : arrival -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ size = field "size" int (fun r -> r.size) in
  Arrival { job; size }

let pass_start =
  case "pass_start" (function Pass_start r -> Some r | _ -> None)
  @@
  let+ pending = field "pending" int (fun (r : pass_start) -> r.pending) in
  Pass_start { pending }

let pass_end =
  case "pass_end" (function Pass_end r -> Some r | _ -> None)
  @@
  let+ started = field "started" int (fun (r : pass_end) -> r.started) in
  Pass_end { started }

let attempt =
  case "attempt" (function Attempt r -> Some r | _ -> None)
  @@
  let field name c (get : attempt -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ ctx = field "ctx" (enum ctx_name [ Head; Backfill ]) (fun r -> r.ctx)
  and+ outcome =
    field "outcome"
      (enum outcome_name [ Fit; Infeasible; Exhausted; Memo_hit ])
      (fun r -> r.outcome)
  and+ nodes = field "nodes" int (fun r -> r.nodes)
  and+ leaf_cables = field "leaf" int (fun r -> r.leaf_cables)
  and+ l2_cables = field "l2" int (fun r -> r.l2_cables) in
  Attempt { job; ctx; outcome; nodes; leaf_cables; l2_cables }

(* The phase a job started from is its tag, not a field: trace analyses
   group on it. *)
let start ctx =
  case
    (match ctx with Head -> "start" | Backfill -> "backfill_start")
    (function Start r when r.ctx = ctx -> Some r | _ -> None)
  @@
  let field name c (get : start -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ nodes = field "nodes" int (fun r -> r.nodes)
  and+ leaf_cables = field "leaf" int (fun r -> r.leaf_cables)
  and+ l2_cables = field "l2" int (fun r -> r.l2_cables)
  and+ est_end = field "est_end" num (fun r -> r.est_end)
  and+ attempt = field "attempt" int (fun r -> r.attempt) in
  Start { job; ctx; nodes; leaf_cables; l2_cables; est_end; attempt }

let reservation_set =
  case "reservation_set" (function Reservation_set r -> Some r | _ -> None)
  @@
  let field name c (get : reservation_set -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ at = field "at" num (fun r -> r.at)
  and+ nodes = field "nodes" int (fun r -> r.nodes)
  and+ leaf_cables = field "leaf" int (fun r -> r.leaf_cables)
  and+ l2_cables = field "l2" int (fun r -> r.l2_cables) in
  Reservation_set { job; at; nodes; leaf_cables; l2_cables }

let job_only tag prj make =
  case tag prj
  @@
  let+ job = field "job" int (fun (r : job_only) -> r.job) in
  make { job }

let reservation_clear =
  job_only "reservation_clear"
    (function Reservation_clear r -> Some r | _ -> None)
    (fun r -> Reservation_clear r)

let reject =
  job_only "reject" (function Reject r -> Some r | _ -> None) (fun r -> Reject r)

let complete =
  case "complete" (function Complete r -> Some r | _ -> None)
  @@
  let field name c (get : complete -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ started = field "started" num (fun r -> r.started)
  and+ waited = field "waited" num (fun r -> r.waited) in
  Complete { job; started; waited }

let fail =
  case "fail" (function Fail r -> Some r | _ -> None)
  @@
  let field name c (get : fail -> _) = field name c get in
  let+ target = field "target" str (fun r -> r.target)
  and+ id = field "id" int (fun r -> r.id)
  and+ nodes = field "nodes" int (fun r -> r.nodes)
  and+ leaf_cables = field "leaf" int (fun r -> r.leaf_cables)
  and+ l2_cables = field "l2" int (fun r -> r.l2_cables) in
  Fail { target; id; nodes; leaf_cables; l2_cables }

let repair =
  case "repair" (function Repair r -> Some r | _ -> None)
  @@
  let field name c (get : repair -> _) = field name c get in
  let+ target = field "target" str (fun r -> r.target)
  and+ id = field "id" int (fun r -> r.id) in
  Repair { target; id }

let kill =
  case "kill" (function Kill r -> Some r | _ -> None)
  @@
  let field name c (get : kill -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ attempt = field "attempt" int (fun r -> r.attempt)
  and+ lost = field "lost" num (fun r -> r.lost) in
  Kill { job; attempt; lost }

let requeue =
  case "requeue" (function Requeue r -> Some r | _ -> None)
  @@
  let field name c (get : requeue -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ attempt = field "attempt" int (fun r -> r.attempt)
  and+ resume_at = field "resume_at" num (fun r -> r.resume_at) in
  Requeue { job; attempt; resume_at }

let abandon =
  case "abandon" (function Abandon r -> Some r | _ -> None)
  @@
  let field name c (get : abandon -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ attempt = field "attempt" int (fun r -> r.attempt) in
  Abandon { job; attempt }

let resize =
  case "resize" (function Resize r -> Some r | _ -> None)
  @@
  let field name c (get : resize -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ from_size = field "from" int (fun r -> r.from_size)
  and+ to_size = field "to" int (fun r -> r.to_size)
  and+ new_end = field "new_end" num (fun r -> r.new_end) in
  Resize { job; from_size; to_size; new_end }

let shrink_recover =
  case "shrink_recover" (function Shrink_recover r -> Some r | _ -> None)
  @@
  let field name c (get : shrink_recover -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ attempt = field "attempt" int (fun r -> r.attempt)
  and+ from_size = field "from" int (fun r -> r.from_size)
  and+ to_size = field "to" int (fun r -> r.to_size) in
  Shrink_recover { job; attempt; from_size; to_size }

(* Installing and retracting a job's flows are two tags. *)
let net_route retract =
  case
    (if retract then "net_retract" else "net_route")
    (function Net_route r when r.retract = retract -> Some r | _ -> None)
  @@
  let field name c (get : net_route -> _) = field name c get in
  let+ job = field "job" int (fun r -> r.job)
  and+ flows = field "flows" int (fun r -> r.flows)
  and+ channels = field "channels" int (fun r -> r.channels)
  and+ interfered = field "interfered" int (fun r -> r.interfered) in
  Net_route { job; retract; flows; channels; interfered }

let net_sample =
  case "net_sample" (function Net_congestion_sample r -> Some r | _ -> None)
  @@
  let field name c (get : net_congestion_sample -> _) = field name c get in
  let+ max_load = field "max_load" int (fun r -> r.max_load)
  and+ shared = field "shared" int (fun r -> r.shared)
  and+ interfered = field "interfered" int (fun r -> r.interfered)
  and+ total_flows = field "flows" int (fun r -> r.total_flows)
  and+ lower_bound = field "lb" int (fun r -> r.lower_bound) in
  Net_congestion_sample { max_load; shared; interfered; total_flows; lower_bound }

let row =
  let+ time = field "t" num (fun e -> e.time)
  and+ payload =
    on
      (fun e -> e.payload)
      (cases "ev"
         [
           run_meta; arrival; pass_start; pass_end; attempt; start Head;
           start Backfill; reservation_set; reservation_clear; complete;
           reject; fail; repair; kill; requeue; abandon; resize;
           shrink_recover; net_route false; net_route true; net_sample;
         ])
  in
  { time; payload }

let json_fields e = Row.fields row e

let to_jsonl b e =
  Json.write b (json_fields e);
  Buffer.add_char b '\n'

let of_jsonl line = Row.decode row (Json.parse_line line)

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

(* One fixed column set for every event kind.  Each kind's entry below
   is written like a CSV row: column by column after time and event,
   the JSON field that goes there (blank: unused).  This table is the
   whole CSV schema; DESIGN.md's schema table points here.  Columns
   event, ctx, outcome and target hold strings; the rest hold numbers.
   Unused job, ctx, outcome and target cells are empty, unused numeric
   cells print 0. *)

let csv_header = "time,event,job,ctx,outcome,target,nodes,leaf_cables,l2_cables,a,b"

let csv_columns =
  List.map
    (fun (kind, row) ->
      (kind, Array.of_list (String.split_on_char ',' ("t,ev," ^ row))))
    [
      (* kind,            job,ctx,outcome,target,nodes,leaf,l2,a,b *)
      ("run", ",scheme,scenario,trace,nodes,radix,jobs,,");
      ("arrival", "job,,,,size,,,,");
      ("pass_start", ",,,,,,,pending,");
      ("pass_end", ",,,,,,,started,");
      ("attempt", "job,ctx,outcome,,nodes,leaf,l2,,");
      ("start", "job,,,,nodes,leaf,l2,est_end,attempt");
      ("backfill_start", "job,,,,nodes,leaf,l2,est_end,attempt");
      ("reservation_set", "job,,,,nodes,leaf,l2,at,");
      ("reservation_clear", "job,,,,,,,,");
      ("complete", "job,,,,,,,started,waited");
      ("reject", "job,,,,,,,,");
      ("fail", ",,,target,nodes,leaf,l2,id,");
      ("repair", ",,,target,,,,id,");
      ("kill", "job,,,,,,,attempt,lost");
      ("requeue", "job,,,,,,,attempt,resume_at");
      ("abandon", "job,,,,,,,attempt,");
      ("resize", "job,,,,from,to,,new_end,");
      ("shrink_recover", "job,,,,from,to,,attempt,");
      ("net_route", "job,,,,flows,channels,interfered,,");
      ("net_retract", "job,,,,flows,channels,interfered,,");
      ("net_sample", ",,,,max_load,shared,interfered,flows,lb");
    ]

let columns_of kind =
  match List.assoc_opt kind csv_columns with
  | Some cols -> cols
  | None ->
      raise (Json.Parse_error (Printf.sprintf "unknown event kind %S" kind))

let string_column i = i = 1 || (i >= 3 && i <= 5)

(* RFC 4180 quoting, applied only where a bare cell would not read
   back: a comma or a line break inside, or a leading quote.  A quote
   anywhere else stays bare, as every trace before quoting wrote it. *)
let add_cell b v =
  if v <> "" && (v.[0] = '"' || String.exists (fun c -> c = ',' || c = '\n' || c = '\r') v)
  then begin
    Buffer.add_char b '"';
    String.iter
      (fun c -> if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      v;
    Buffer.add_char b '"'
  end
  else Buffer.add_string b v

let to_csv b e =
  let fields = json_fields e in
  Array.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char b ',';
      match List.assoc_opt name fields with
      | Some (Json.Num x) -> Json.add_number b x
      | Some (Json.Str v) -> add_cell b v
      | None -> if i > 5 then Buffer.add_char b '0')
    (columns_of (Json.str fields "ev"));
  Buffer.add_char b '\n'

(* A cell that starts with a quote runs to the next undoubled quote;
   any other cell runs to the next comma.  [None]: a quoted cell is
   still open at the end of [line]. *)
let csv_cells line =
  let n = String.length line in
  let rec cell i acc =
    if i < n && line.[i] = '"' then quoted (i + 1) (Buffer.create 16) acc
    else
      let j = Option.value (String.index_from_opt line i ',') ~default:n in
      next j (String.sub line i (j - i) :: acc)
  and quoted i b acc =
    if i >= n then None
    else if line.[i] <> '"' then (Buffer.add_char b line.[i]; quoted (i + 1) b acc)
    else if i + 1 < n && line.[i + 1] = '"' then (Buffer.add_char b '"'; quoted (i + 2) b acc)
    else next (i + 1) (Buffer.contents b :: acc)
  and next i acc =
    if i >= n then Some (List.rev acc)
    else if line.[i] = ',' then cell (i + 1) acc
    else
      raise
        (Json.Parse_error
           (Printf.sprintf "text after the quoted cell in column %d"
              (List.length acc)))
  in
  cell 0 []

let csv_row_complete line =
  (not (String.contains line '"'))
  ||
  match csv_cells line with
  | None -> false
  | Some _ | (exception Json.Parse_error _) -> true

let of_csv line =
  match csv_cells line with
  | Some (_ :: kind :: _ as cells) when List.length cells = 11 ->
      let cell i (name, v) =
        if name = "" then []
        else if string_column i then [ (name, Json.Str v) ]
        else
          match float_of_string_opt v with
          | Some x -> [ (name, Json.Num x) ]
          | None ->
              raise
                (Json.Parse_error
                   (Printf.sprintf "column %s: malformed number %S" name v))
      in
      List.combine (Array.to_list (columns_of kind)) cells
      |> List.mapi cell |> List.concat |> Row.decode row
  | Some cells ->
      raise
        (Json.Parse_error
           (Printf.sprintf "expected 11 CSV columns, found %d"
              (List.length cells)))
  | None -> raise (Json.Parse_error "unterminated quoted cell")

let pp ppf e =
  let b = Buffer.create 128 in
  Json.write b (json_fields e);
  Format.pp_print_string ppf (Buffer.contents b)
