(* Wire protocol: line-delimited flat JSON over a Unix-domain socket.

   One request per line, one reply per line, same [Obs.Json] dialect as
   the WAL and the trace sink.  Parsing is total: any byte sequence a
   client can send maps to either a typed request or a typed error —
   never an exception escaping to the reactor.  The fuzz suite in
   [test_svc] holds the reactor to that. *)

type submit = {
  id : int option;
  size : int;
  min_size : int option;
  max_size : int option;
  runtime : float;
  est_runtime : float option;
  bw_class : float option;
}

type request =
  | Submit of submit
  | Cancel of { id : int }
  | Resize of { id : int; size : int }
  | Fault of { kind : Trace.Faults.kind; target : Trace.Faults.target }
  | Advance of { upto : float }
  | Drain
  | Status
  | Stats
  | Ping
  | Shutdown
  | Crash of { point : string }

type envelope = {
  rid : string option;
  at : float option;
  version : int;
  req : request;
}

(* Version 1 is the pre-molding wire format; version 2 adds the
   [version] field itself, [min]/[max] on submit and the [resize] op.
   A request with no [version] field is a v1 client and is always
   accepted — v2 is a strict superset. *)
let current_version = 2

type error_code =
  | Parse_failed  (** Not a flat JSON line. *)
  | Bad_request  (** Parsed, but no valid request in it. *)
  | Invalid  (** Well-formed, rejected by the engine. *)
  | Overloaded  (** Ingest queue full — retry after the hint. *)
  | Internal

let error_code_name = function
  | Parse_failed -> "parse"
  | Bad_request -> "bad-request"
  | Invalid -> "invalid"
  | Overloaded -> "overloaded"
  | Internal -> "internal"

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(* One row per op, under the envelope's [op] tag.  The rows are the
   wire schema: the daemon reads requests with them and [request_line]
   writes them, so the client cannot drift from the parser. *)

open Obs.Row

let bad m = raise (Obs.Json.Parse_error m)

let finite =
  conv num Fun.id (fun x ->
      if Float.is_finite x then x else failwith "must be finite")

let opt name c get = field ~omit:None name (option c) get

let submit =
  let+ id = opt "id" int (fun (r : submit) -> r.id)
  and+ size = field "size" int (fun (r : submit) -> r.size)
  and+ runtime = field "runtime" finite (fun (r : submit) -> r.runtime)
  and+ est_runtime = opt "est_runtime" finite (fun (r : submit) -> r.est_runtime)
  and+ bw_class = opt "bw" finite (fun (r : submit) -> r.bw_class)
  and+ min_size = opt "min" int (fun (r : submit) -> r.min_size)
  and+ max_size = opt "max" int (fun (r : submit) -> r.max_size) in
  if size <= 0 then bad "size must be positive";
  if runtime < 0.0 then bad "runtime must be non-negative";
  Submit { id; size; min_size; max_size; runtime; est_runtime; bw_class }

let target =
  let+ name = field "target" str Trace.Faults.target_name
  and+ index = field "index" int Trace.Faults.target_id in
  match Trace.Faults.target_of_name name index with
  | Ok target -> target
  | Error m -> bad m

let fault kind =
  case (Trace.Faults.kind_name kind)
    (function Fault f when f.kind = kind -> Some f.target | _ -> None)
    (let+ target = target in
     Fault { kind; target })

(* An op with no fields. *)
let bare name req =
  case name (fun r -> if r = req then Some () else None) (let+ _ = list [] in req)

let request =
  cases "op"
    [
      case "submit" (function Submit r -> Some r | _ -> None) submit;
      case "cancel"
        (function Cancel { id } -> Some id | _ -> None)
        (let+ id = field "id" int Fun.id in
         Cancel { id });
      case "resize"
        (function Resize { id; size } -> Some (id, size) | _ -> None)
        (let+ id = field "id" int fst and+ size = field "size" int snd in
         if size <= 0 then bad "size must be positive";
         Resize { id; size });
      fault Trace.Faults.Fail;
      fault Trace.Faults.Repair;
      case "advance"
        (function Advance { upto } -> Some upto | _ -> None)
        (let+ upto = field "to" finite Fun.id in
         Advance { upto });
      bare "drain" Drain;
      bare "status" Status;
      bare "stats" Stats;
      bare "ping" Ping;
      bare "shutdown" Shutdown;
      case "crash"
        (function Crash { point } -> Some point | _ -> None)
        (let+ point = field ~omit:"" "point" str Fun.id in
         Crash { point });
    ]

let rid = opt "rid" str Fun.id
let version = field ~omit:1 "version" int (fun e -> e.version)

let envelope =
  let+ req = on (fun e -> e.req) request
  and+ version = version
  and+ at = opt "at" finite (fun e -> e.at)
  and+ rid = on (fun e -> e.rid) rid in
  { rid; at; version; req }

let to_line fields =
  let b = Buffer.create 128 in
  Obs.Json.write b fields;
  Buffer.add_char b '\n';
  Buffer.contents b

let request_line e = to_line (Obs.Row.fields envelope e)

let request_of_line line =
  match Obs.Json.parse_line line with
  | exception Obs.Json.Parse_error m -> Error (Parse_failed, m)
  | fields -> (
      match
        (* Version gates op dispatch: a client speaking a newer protocol
           may use ops this daemon has never heard of, and "upgrade the
           daemon" is the actionable error, not "unknown op". *)
        let v = Obs.Row.decode version fields in
        if v < 1 || v > current_version then
          bad
            (Printf.sprintf
               "unsupported protocol version %d (daemon speaks 1..%d)" v
               current_version);
        Obs.Row.decode envelope fields
      with
      | e -> Ok e
      | exception Obs.Json.Parse_error m -> Error (Bad_request, m))

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

type error = { code : error_code; message : string; retry_after : float option }

let error_row =
  let+ _ = field "ok" int (fun _ -> 0)
  and+ code =
    field "error"
      (enum error_code_name
         [ Parse_failed; Bad_request; Invalid; Overloaded; Internal ])
      (fun e -> e.code)
  and+ message = field "message" str (fun e -> e.message)
  and+ retry_after = opt "retry_after" num (fun e -> e.retry_after) in
  { code; message; retry_after }

let ok_reply ?(fields = []) r =
  to_line (("ok", Obs.Json.Num 1.0) :: (fields @ Obs.Row.fields rid r))

let error_reply ?retry_after ~rid:r code message =
  to_line
    (Obs.Row.fields ~tail:(Obs.Row.fields rid r) error_row
       { code; message; retry_after })

let error_of_fields fields = Obs.Row.decode error_row fields
