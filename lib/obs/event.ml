(* Structured trace events.

   Every record carries *simulated* time and logical payloads only —
   never wall-clock durations — so the stream produced by a run is a
   pure function of (workload, scheme, seeds) and two runs with the same
   inputs emit byte-identical traces.  Wall-clock profiling lives in
   [Prof], outside the trace. *)

type probe_outcome = Fit | Infeasible | Exhausted | Memo_hit
type ctx = Head | Backfill

type payload =
  | Run_meta of {
      trace : string;
      scheme : string;
      scenario : string;
      radix : int;
      nodes : int;
      jobs : int;
    }
  | Arrival of { job : int; size : int }
  | Pass_start of { pending : int }
  | Pass_end of { started : int }
  | Attempt of {
      job : int;
      ctx : ctx;
      outcome : probe_outcome;
      nodes : int;
      leaf_cables : int;
      l2_cables : int;
    }
  | Start of {
      job : int;
      ctx : ctx;
      nodes : int;
      leaf_cables : int;
      l2_cables : int;
      est_end : float;
      attempt : int;
    }
  | Reservation_set of {
      job : int;
      at : float;
      nodes : int;
      leaf_cables : int;
      l2_cables : int;
    }
  | Reservation_clear of { job : int }
  | Complete of { job : int; started : float; waited : float }
  | Reject of { job : int }
  | Fail of {
      target : string;
      id : int;
      nodes : int;
      leaf_cables : int;
      l2_cables : int;
    }
  | Repair of { target : string; id : int }
  | Kill of { job : int; attempt : int; lost : float }
  | Requeue of { job : int; attempt : int; resume_at : float }
  | Abandon of { job : int; attempt : int }
  | Resize of { job : int; from_size : int; to_size : int; new_end : float }
  | Shrink_recover of {
      job : int;
      attempt : int;
      from_size : int;
      to_size : int;
    }
  | Net_route of {
      job : int;
      retract : bool;
      flows : int;
      channels : int;
      interfered : int;
    }
  | Net_congestion_sample of {
      max_load : int;
      shared : int;
      interfered : int;
      total_flows : int;
      lower_bound : int;
    }

type t = { time : float; payload : payload }

let outcome_name = function
  | Fit -> "fit"
  | Infeasible -> "infeasible"
  | Exhausted -> "exhausted"
  | Memo_hit -> "memo_hit"

let outcome_of_name = function
  | "fit" -> Fit
  | "infeasible" -> Infeasible
  | "exhausted" -> Exhausted
  | "memo_hit" -> Memo_hit
  | s -> raise (Json.Parse_error (Printf.sprintf "unknown probe outcome %S" s))

let ctx_name = function Head -> "head" | Backfill -> "backfill"

let ctx_of_name = function
  | "head" -> Head
  | "backfill" -> Backfill
  | s -> raise (Json.Parse_error (Printf.sprintf "unknown attempt context %S" s))

(* A [Start] from the backfill phase serializes as its own event kind:
   the distinction is what trace analyses group on. *)
let kind_name = function
  | Run_meta _ -> "run"
  | Arrival _ -> "arrival"
  | Pass_start _ -> "pass_start"
  | Pass_end _ -> "pass_end"
  | Attempt _ -> "attempt"
  | Start { ctx = Head; _ } -> "start"
  | Start { ctx = Backfill; _ } -> "backfill_start"
  | Reservation_set _ -> "reservation_set"
  | Reservation_clear _ -> "reservation_clear"
  | Complete _ -> "complete"
  | Reject _ -> "reject"
  | Fail _ -> "fail"
  | Repair _ -> "repair"
  | Kill _ -> "kill"
  | Requeue _ -> "requeue"
  | Abandon _ -> "abandon"
  | Resize _ -> "resize"
  | Shrink_recover _ -> "shrink_recover"
  | Net_route { retract = false; _ } -> "net_route"
  | Net_route { retract = true; _ } -> "net_retract"
  | Net_congestion_sample _ -> "net_sample"

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

let n x = Json.Num (float_of_int x)
let f x = Json.Num x
let s x = Json.Str x

let json_fields e =
  let base = [ ("t", f e.time); ("ev", s (kind_name e.payload)) ] in
  base
  @
  match e.payload with
  | Run_meta { trace; scheme; scenario; radix; nodes; jobs } ->
      [
        ("trace", s trace);
        ("scheme", s scheme);
        ("scenario", s scenario);
        ("radix", n radix);
        ("nodes", n nodes);
        ("jobs", n jobs);
      ]
  | Arrival { job; size } -> [ ("job", n job); ("size", n size) ]
  | Pass_start { pending } -> [ ("pending", n pending) ]
  | Pass_end { started } -> [ ("started", n started) ]
  | Attempt { job; ctx; outcome; nodes; leaf_cables; l2_cables } ->
      [
        ("job", n job);
        ("ctx", s (ctx_name ctx));
        ("outcome", s (outcome_name outcome));
        ("nodes", n nodes);
        ("leaf", n leaf_cables);
        ("l2", n l2_cables);
      ]
  | Start { job; ctx = _; nodes; leaf_cables; l2_cables; est_end; attempt } ->
      [
        ("job", n job);
        ("nodes", n nodes);
        ("leaf", n leaf_cables);
        ("l2", n l2_cables);
        ("est_end", f est_end);
        ("attempt", n attempt);
      ]
  | Reservation_set { job; at; nodes; leaf_cables; l2_cables } ->
      [
        ("job", n job);
        ("at", f at);
        ("nodes", n nodes);
        ("leaf", n leaf_cables);
        ("l2", n l2_cables);
      ]
  | Reservation_clear { job } -> [ ("job", n job) ]
  | Complete { job; started; waited } ->
      [ ("job", n job); ("started", f started); ("waited", f waited) ]
  | Reject { job } -> [ ("job", n job) ]
  | Fail { target; id; nodes; leaf_cables; l2_cables } ->
      [
        ("target", s target);
        ("id", n id);
        ("nodes", n nodes);
        ("leaf", n leaf_cables);
        ("l2", n l2_cables);
      ]
  | Repair { target; id } -> [ ("target", s target); ("id", n id) ]
  | Kill { job; attempt; lost } ->
      [ ("job", n job); ("attempt", n attempt); ("lost", f lost) ]
  | Requeue { job; attempt; resume_at } ->
      [ ("job", n job); ("attempt", n attempt); ("resume_at", f resume_at) ]
  | Abandon { job; attempt } -> [ ("job", n job); ("attempt", n attempt) ]
  | Resize { job; from_size; to_size; new_end } ->
      [
        ("job", n job);
        ("from", n from_size);
        ("to", n to_size);
        ("new_end", f new_end);
      ]
  | Shrink_recover { job; attempt; from_size; to_size } ->
      [
        ("job", n job);
        ("attempt", n attempt);
        ("from", n from_size);
        ("to", n to_size);
      ]
  | Net_route { job; retract = _; flows; channels; interfered } ->
      [
        ("job", n job);
        ("flows", n flows);
        ("channels", n channels);
        ("interfered", n interfered);
      ]
  | Net_congestion_sample { max_load; shared; interfered; total_flows; lower_bound }
    ->
      [
        ("max_load", n max_load);
        ("shared", n shared);
        ("interfered", n interfered);
        ("flows", n total_flows);
        ("lb", n lower_bound);
      ]

let to_jsonl b e =
  Json.write b (json_fields e);
  Buffer.add_char b '\n'

let of_json_fields fields =
  let time = Json.num fields "t" in
  let job () = Json.int fields "job" in
  let counts () =
    (Json.int fields "nodes", Json.int fields "leaf", Json.int fields "l2")
  in
  let payload =
    match Json.str fields "ev" with
    | "run" ->
        Run_meta
          {
            trace = Json.str fields "trace";
            scheme = Json.str fields "scheme";
            scenario = Json.str fields "scenario";
            radix = Json.int fields "radix";
            nodes = Json.int fields "nodes";
            jobs = Json.int fields "jobs";
          }
    | "arrival" -> Arrival { job = job (); size = Json.int fields "size" }
    | "pass_start" -> Pass_start { pending = Json.int fields "pending" }
    | "pass_end" -> Pass_end { started = Json.int fields "started" }
    | "attempt" ->
        let nodes, leaf_cables, l2_cables = counts () in
        Attempt
          {
            job = job ();
            ctx = ctx_of_name (Json.str fields "ctx");
            outcome = outcome_of_name (Json.str fields "outcome");
            nodes;
            leaf_cables;
            l2_cables;
          }
    | ("start" | "backfill_start") as k ->
        let nodes, leaf_cables, l2_cables = counts () in
        Start
          {
            job = job ();
            ctx = (if k = "start" then Head else Backfill);
            nodes;
            leaf_cables;
            l2_cables;
            est_end = Json.num fields "est_end";
            attempt = Json.int fields "attempt";
          }
    | "reservation_set" ->
        let nodes, leaf_cables, l2_cables = counts () in
        Reservation_set
          { job = job (); at = Json.num fields "at"; nodes; leaf_cables; l2_cables }
    | "reservation_clear" -> Reservation_clear { job = job () }
    | "complete" ->
        Complete
          {
            job = job ();
            started = Json.num fields "started";
            waited = Json.num fields "waited";
          }
    | "reject" -> Reject { job = job () }
    | "fail" ->
        let nodes, leaf_cables, l2_cables = counts () in
        Fail
          {
            target = Json.str fields "target";
            id = Json.int fields "id";
            nodes;
            leaf_cables;
            l2_cables;
          }
    | "repair" ->
        Repair { target = Json.str fields "target"; id = Json.int fields "id" }
    | "kill" ->
        Kill
          {
            job = job ();
            attempt = Json.int fields "attempt";
            lost = Json.num fields "lost";
          }
    | "requeue" ->
        Requeue
          {
            job = job ();
            attempt = Json.int fields "attempt";
            resume_at = Json.num fields "resume_at";
          }
    | "abandon" -> Abandon { job = job (); attempt = Json.int fields "attempt" }
    | "resize" ->
        Resize
          {
            job = job ();
            from_size = Json.int fields "from";
            to_size = Json.int fields "to";
            new_end = Json.num fields "new_end";
          }
    | "shrink_recover" ->
        Shrink_recover
          {
            job = job ();
            attempt = Json.int fields "attempt";
            from_size = Json.int fields "from";
            to_size = Json.int fields "to";
          }
    | ("net_route" | "net_retract") as k ->
        Net_route
          {
            job = job ();
            retract = k = "net_retract";
            flows = Json.int fields "flows";
            channels = Json.int fields "channels";
            interfered = Json.int fields "interfered";
          }
    | "net_sample" ->
        Net_congestion_sample
          {
            max_load = Json.int fields "max_load";
            shared = Json.int fields "shared";
            interfered = Json.int fields "interfered";
            total_flows = Json.int fields "flows";
            lower_bound = Json.int fields "lb";
          }
    | k -> raise (Json.Parse_error (Printf.sprintf "unknown event kind %S" k))
  in
  { time; payload }

let of_jsonl line = of_json_fields (Json.parse_line line)

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

(* One fixed column set for every event kind.  Each kind's entry below
   is written like a CSV row: column by column, the [json_fields] field
   that goes there (blank: unused).  This table is the whole CSV schema;
   DESIGN.md's schema table points here.  Columns ctx, outcome and target
   hold strings; the rest hold numbers.  Unused job, ctx, outcome and
   target cells are empty, unused numeric cells print 0. *)

let csv_header = "time,event,job,ctx,outcome,target,nodes,leaf_cables,l2_cables,a,b"

let csv_columns =
  List.map
    (fun (kind, row) -> (kind, Array.of_list (String.split_on_char ',' row)))
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

let string_column i = i >= 1 && i <= 3

let add_float b x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else Buffer.add_string b (Printf.sprintf "%.17g" x)

let to_csv b e =
  let fields = json_fields e in
  let kind = kind_name e.payload in
  add_float b e.time;
  Buffer.add_char b ',';
  Buffer.add_string b kind;
  Array.iteri
    (fun i name ->
      Buffer.add_char b ',';
      match List.assoc_opt name fields with
      | Some (Json.Num x) -> add_float b x
      | Some (Json.Str v) -> Buffer.add_string b v
      | None -> if i > 3 then Buffer.add_char b '0')
    (columns_of kind);
  Buffer.add_char b '\n'

let of_csv line =
  match String.split_on_char ',' line with
  | time :: kind :: cells when List.length cells = 9 ->
      let number name v =
        match float_of_string_opt v with
        | Some x -> Json.Num x
        | None ->
            raise
              (Json.Parse_error
                 (Printf.sprintf "column %s: malformed number %S" name v))
      in
      let cell i (name, v) =
        if name = "" then []
        else [ (name, if string_column i then Json.Str v else number name v) ]
      in
      let fields =
        List.combine (Array.to_list (columns_of kind)) cells
        |> List.mapi cell |> List.concat
      in
      of_json_fields
        (("t", number "time" time) :: ("ev", Json.Str kind) :: fields)
  | cells ->
      raise
        (Json.Parse_error
           (Printf.sprintf "expected 11 CSV columns, found %d"
              (List.length cells)))

let pp ppf e =
  let b = Buffer.create 128 in
  Json.write b (json_fields e);
  Format.pp_print_string ppf (Buffer.contents b)
