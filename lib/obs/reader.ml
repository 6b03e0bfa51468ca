type run = { meta : Event.run_meta option; events : Event.t list }

let meta_of_payload = function Event.Run_meta m -> Some m | _ -> None

(* Split a flat event stream into runs on Run_meta boundaries.  Events
   before the first meta (hand-built or truncated files) form a headless
   run rather than being dropped. *)
let split_runs events =
  let runs = ref [] and meta = ref None and acc = ref [] in
  let close () =
    if !meta <> None || !acc <> [] then
      runs := { meta = !meta; events = List.rev !acc } :: !runs
  in
  List.iter
    (fun (e : Event.t) ->
      match meta_of_payload e.payload with
      | Some m ->
          close ();
          meta := Some m;
          acc := []
      | None -> acc := e :: !acc)
    events;
  close ();
  List.rev !runs

(* A CSV row whose quoted cell holds a line break goes on on the next
   line; it is numbered by its first. *)
let rec csv_rows acc = function
  | (i, row) :: (_, next) :: rest when not (Event.csv_row_complete row) ->
      csv_rows acc ((i, row ^ "\n" ^ next) :: rest)
  | r :: rest -> csv_rows (r :: acc) rest
  | [] -> List.rev acc

let parse_events fmt lines =
  let parse_one =
    match fmt with Sink.Jsonl -> Event.of_jsonl | Sink.Csv -> Event.of_csv
  in
  let numbered = List.mapi (fun i line -> (i + 1, line)) lines in
  let rows = if fmt = Sink.Csv then csv_rows [] numbered else numbered in
  let events = ref [] in
  let err = ref None in
  List.iter
    (fun (lineno, line) ->
      if !err = None then
        let skip =
          String.trim line = ""
          || (fmt = Sink.Csv && lineno = 1 && line = Event.csv_header)
        in
        if not skip then
          match parse_one line with
          | e -> events := e :: !events
          | exception Json.Parse_error m ->
              err := Some (Printf.sprintf "line %d: %s" lineno m))
    rows;
  match !err with
  | Some m -> Error m
  | None -> Ok (split_runs (List.rev !events))

(* Generic flat-JSONL reading — checkpoint files and sweep manifests are
   streams of flat [Json] records, not event traces, so they bypass
   [Event] entirely. *)
let parse_jsonl content =
  let lines = String.split_on_char '\n' content in
  let records = ref [] in
  let err = ref None in
  List.iteri
    (fun i line ->
      if !err = None && String.trim line <> "" then
        match Json.parse_line line with
        | fields -> records := fields :: !records
        | exception Json.Parse_error m ->
            err := Some (Printf.sprintf "line %d: %s" (i + 1) m))
    lines;
  match !err with Some m -> Error m | None -> Ok (List.rev !records)

let load ?format path =
  let fmt = match format with Some f -> f | None -> Sink.format_of_path path in
  match In_channel.with_open_text path In_channel.input_lines with
  | lines -> (
      match parse_events fmt lines with
      | Ok runs -> Ok runs
      | Error m -> Error (Printf.sprintf "%s: %s" path m))
  | exception Sys_error m -> Error m
