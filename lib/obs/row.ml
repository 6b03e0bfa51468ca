(* A row is its field names, an encoder that prepends the row's fields
   onto a tail (n fields cost n conses: no reversal, no append) and a
   decoder.  Conversions signal a malformed value with [Failure reason];
   the field turns that into a [Parse_error] naming itself. *)

type 'a conv = { to_json : 'a -> Json.value; of_json : Json.value -> 'a }

let num =
  let of_json = function
    | Json.Num x -> x
    | Json.Str _ -> failwith "is a string, expected a number"
  in
  { to_json = (fun x -> Json.Num x); of_json }

let int =
  let of_json v =
    let x = num.of_json v in
    let i = int_of_float x in
    if float_of_int i <> x then
      failwith (Printf.sprintf "is not an integer (%g)" x);
    i
  in
  { to_json = (fun i -> Json.Num (float_of_int i)); of_json }

let str =
  let of_json = function
    | Json.Str s -> s
    | Json.Num _ -> failwith "is a number, expected a string"
  in
  { to_json = (fun s -> Json.Str s); of_json }

let bool =
  let to_json b = Json.Num (if b then 1.0 else 0.0) in
  { to_json; of_json = (fun v -> int.of_json v <> 0) }

let option c =
  let to_json = function
    | Some x -> c.to_json x
    | None -> invalid_arg "Row.option: None is only ever omitted"
  in
  { to_json; of_json = (fun v -> Some (c.of_json v)) }

let enum name values =
  let of_json v =
    let s = str.of_json v in
    match List.find_opt (fun x -> name x = s) values with
    | Some x -> x
    | None -> failwith (Printf.sprintf "holds an unknown name %S" s)
  in
  { to_json = (fun x -> Json.Str (name x)); of_json }

let conv c write read =
  let to_json a = c.to_json (write a) in
  { to_json; of_json = (fun v -> read (c.of_json v)) }

(* An entry prints itself onto the field's one buffer: a packed array
   costs no string per entry and no join. *)
type 'a entry = { print : Buffer.t -> 'a -> unit; parse : string -> 'a option }

(* [string_of_int]'s digits, written straight into the buffer.  Digits
   are taken off the non-positive value, so [min_int] needs no case. *)
let add_int b i =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
  in
  if i < 0 then Buffer.add_char b '-';
  digits (if i < 0 then i else -i)

let int_entry = { print = add_int; parse = int_of_string_opt }
let hex_entry = { print = (fun b x -> Printf.bprintf b "%h" x); parse = float_of_string_opt }

let pair_entry a b =
  let parse e =
    match String.split_on_char ':' e with
    | [ x; y ] -> (
        match (a.parse x, b.parse y) with
        | Some x, Some y -> Some (x, y)
        | _ -> None)
    | _ -> None
  in
  let print buf (x, y) =
    a.print buf x;
    Buffer.add_char buf ':';
    b.print buf y
  in
  { print; parse }

let packed e =
  let read s =
    if s = "" then [||]
    else
      String.split_on_char ' ' s
      |> List.map (fun x ->
             match e.parse x with
             | Some v -> v
             | None -> failwith (Printf.sprintf "holds a malformed entry %S" x))
      |> Array.of_list
  in
  let write a =
    let b = Buffer.create (8 * Array.length a) in
    Array.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ' ';
        e.print b x)
      a;
    Buffer.contents b
  in
  conv str write read

type fields = (string * Json.value) list

type ('r, 'a) t = {
  names : string list;
  write : 'r -> fields -> fields;
  read : fields -> 'a;
}

let error fmt = Printf.ksprintf (fun m -> raise (Json.Parse_error m)) fmt

let field ?absent ?omit name c get =
  let write =
    match omit with
    | None -> fun r tl -> (name, c.to_json (get r)) :: tl
    | Some d ->
        fun r tl ->
          let v = get r in
          if v = d then tl else (name, c.to_json v) :: tl
  in
  let default = if Option.is_some omit then omit else absent in
  let read fields =
    match (List.assoc_opt name fields, default) with
    | Some v, _ -> (
        try c.of_json v with Failure reason -> error "field %S %s" name reason)
    | None, Some d -> d
    | None, None -> error "missing field %S" name
  in
  { names = [ name ]; write; read }

let ( let+ ) t f = { t with read = (fun fields -> f (t.read fields)) }

let ( and+ ) a b =
  let write r tl = a.write r (b.write r tl) in
  let read fields =
    let x = a.read fields in
    (x, b.read fields)
  in
  { names = a.names @ b.names; write; read }

let on get t = { t with write = (fun r tl -> t.write (get r) tl) }

let list rows =
  let write r tl = List.fold_right (fun t tl -> t.write r tl) rows tl in
  let read fields = List.map (fun t -> t.read fields) rows in
  { names = List.concat_map (fun t -> t.names) rows; write; read }

let optional get t =
  let write r tl = match get r with None -> tl | Some s -> t.write s tl in
  let read fields =
    if List.exists (fun n -> List.mem_assoc n fields) t.names then
      Some (t.read fields)
    else None
  in
  { names = t.names; write; read }

type ('r, 'a) case = Case : string * ('r -> 's option) * ('s, 'a) t -> ('r, 'a) case

let case tag prj t = Case (tag, prj, t)

let cases key cs =
  let tag_field = field key str Fun.id in
  let rec write r tl = function
    | [] -> invalid_arg ("Row.cases: no " ^ key ^ " case for the value")
    | Case (tag, prj, t) :: rest -> (
        match prj r with
        | Some s -> (key, Json.Str tag) :: t.write s tl
        | None -> write r tl rest)
  in
  let read fields =
    let tag = tag_field.read fields in
    match List.find_opt (fun (Case (t, _, _)) -> t = tag) cs with
    | Some (Case (_, _, t)) -> t.read fields
    | None -> error "unknown %s %S" key tag
  in
  { names = [ key ]; write = (fun r tl -> write r tl cs); read }

let fields ?(tail = []) t r = t.write r tail
let decode t fields = t.read fields
