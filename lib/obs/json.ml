(* Flat JSON objects — the only JSON shape the trace pipeline uses.
   The writer and parser are dual: every line the JSONL sink emits is a
   single-level object whose values are numbers or strings, so a full
   JSON library would be dead weight (and the container image carries
   none).  Nested values are rejected, not silently mangled. *)

type value = Num of float | Str of string

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape b s =
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

(* The primitive [Printf]'s [%.17g] ends in, without the format
   interpretation in front of it. *)
external format_float : string -> float -> string = "caml_format_float"

(* Byte-identical to [Printf.sprintf "%.0f"] for integral values below
   1e15 (exact in an int, and -0.0 prints "-0") and to ["%.17g"], which
   round-trips every float exactly through float_of_string, otherwise. *)
let add_number b x =
  if Float.is_integer x && Float.abs x < 1e15 then
    if x = 0.0 && Float.sign_bit x then Buffer.add_string b "-0"
    else Buffer.add_string b (string_of_int (int_of_float x))
  else Buffer.add_string b (format_float "%.17g" x)

let add_string b s =
  Buffer.add_char b '"';
  escape b s;
  Buffer.add_char b '"'

let add_field b ~first key v =
  if not first then Buffer.add_char b ',';
  add_string b key;
  Buffer.add_char b ':';
  match v with Num x -> add_number b x | Str s -> add_string b s

let write b fields =
  Buffer.add_char b '{';
  List.iteri (fun i (k, v) -> add_field b ~first:(i = 0) k v) fields;
  Buffer.add_char b '}'

(* ------------------------------------------------------------------ *)
(* Nested reports                                                      *)
(* ------------------------------------------------------------------ *)

type tree =
  | Int of int
  | Float of float
  | Fixed of int * float
  | Text of string
  | Bool of bool
  | Obj of (string * tree) list
  | List of tree list

let rec depth = function
  | Obj members -> 1 + List.fold_left (fun d (_, t) -> max d (depth t)) 0 members
  | List items -> 1 + List.fold_left (fun d t -> max d (depth t)) 0 items
  | Int _ | Float _ | Fixed _ | Text _ | Bool _ -> 0

let write_tree b tree =
  let rec value indent = function
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float x -> add_number b x
    | Fixed (decimals, x) -> Buffer.add_string b (Printf.sprintf "%.*f" decimals x)
    | Text s -> add_string b s
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Obj members ->
        container indent ('{', '}') (List.map (fun (k, v) -> (Some k, v)) members)
    | List items -> container indent ('[', ']') (List.map (fun v -> (None, v)) items)
  and container indent (opening, closing) members =
    let kids = List.map snd members in
    let flat =
      List.exists (fun t -> depth t = 0) kids
      && List.for_all (fun t -> depth t <= 1) kids
    in
    let inner = if flat then indent else indent ^ "  " in
    let first, sep, last =
      if flat then (" ", ", ", " ")
      else ("\n" ^ inner, ",\n" ^ inner, "\n" ^ indent)
    in
    Buffer.add_char b opening;
    if members <> [] then begin
      Buffer.add_string b first;
      List.iteri
        (fun i (key, v) ->
          if i > 0 then Buffer.add_string b sep;
          Option.iter (fun k -> add_string b k; Buffer.add_string b ": ") key;
          value inner v)
        members;
      Buffer.add_string b last
    end;
    Buffer.add_char b closing
  in
  value "" tree;
  Buffer.add_char b '\n'

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && (match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> error "expected '%c' at %d, found '%c'" ch c.pos x
  | None -> error "expected '%c' at %d, found end of input" ch c.pos

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then error "unterminated string";
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents b
    | '\\' ->
        (if c.pos >= String.length c.s then error "unterminated escape";
         let e = c.s.[c.pos] in
         c.pos <- c.pos + 1;
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'u' ->
             if c.pos + 4 > String.length c.s then error "short \\u escape";
             let hex = String.sub c.s c.pos 4 in
             c.pos <- c.pos + 4;
             let code = int_of_string ("0x" ^ hex) in
             (* ASCII control escapes only — all this writer emits. *)
             if code < 0x80 then Buffer.add_char b (Char.chr code)
             else error "non-ASCII \\u escape %s" hex
         | e -> error "bad escape '\\%c'" e);
        go ()
    | ch -> Buffer.add_char b ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && is_num_char c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then error "expected a number at %d" start;
  match float_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some x -> x
  | None -> error "malformed number at %d" start

let parse_value c =
  skip_ws c;
  match peek c with
  | Some '"' -> Str (parse_string c)
  | Some ('{' | '[') -> error "nested JSON at %d: trace lines are flat" c.pos
  | Some _ -> Num (parse_number c)
  | None -> error "expected a value, found end of input"

let parse_line line =
  let c = { s = line; pos = 0 } in
  expect c '{';
  skip_ws c;
  let fields = ref [] in
  (match peek c with
  | Some '}' -> c.pos <- c.pos + 1
  | _ ->
      let rec members () =
        skip_ws c;
        let key = parse_string c in
        expect c ':';
        let v = parse_value c in
        fields := (key, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' -> c.pos <- c.pos + 1; members ()
        | Some '}' -> c.pos <- c.pos + 1
        | Some ch -> error "expected ',' or '}' at %d, found '%c'" c.pos ch
        | None -> error "unterminated object"
      in
      members ());
  skip_ws c;
  if c.pos <> String.length c.s then error "trailing input at %d" c.pos;
  List.rev !fields

let mem fields key = List.mem_assoc key fields

let str fields key =
  match List.assoc_opt key fields with
  | Some (Str s) -> s
  | Some (Num _) -> error "field %S is a number, expected a string" key
  | None -> error "missing field %S" key

let num fields key =
  match List.assoc_opt key fields with
  | Some (Num x) -> x
  | Some (Str _) -> error "field %S is a string, expected a number" key
  | None -> error "missing field %S" key

let int fields key =
  let x = num fields key in
  let i = int_of_float x in
  if float_of_int i <> x then error "field %S is not an integer (%g)" key x;
  i
