(** Record codecs over flat JSON rows.  Each field is declared once, as
    a name, a conversion and a getter; [let+ … and+ …] combines fields
    into a row that both writes a record (its fields in declaration
    order) and reads one back (the [let+] body builds it):

    {[
      let run =
        let+ id = field "id" int (fun r -> r.id)
        and+ epoch = field ~omit:0 "epoch" int (fun r -> r.epoch) in
        { id; epoch }
    ]} *)

type 'a conv
(** How one field's value is stored as a JSON value. *)

val int : int conv
val num : float conv
val str : string conv

val bool : bool conv
(** Stored as [1] or [0]; any non-zero number reads as [true]. *)

val option : 'a conv -> 'a option conv
(** For fields declared with [~omit:None]. *)

val enum : ('a -> string) -> 'a list -> 'a conv
(** Stored as its name; reads back as the listed value of that name. *)

val conv : 'b conv -> ('a -> 'b) -> ('b -> 'a) -> 'a conv
(** [conv c write read] stores an ['a] as the ['b] that [c] stores.
    [read] raises [Failure reason] on a malformed value, which the field
    reports as "field <name> <reason>". *)

(** {1 Packed arrays}

    An array inside one string field: entries separated by single
    spaces, the empty string for the empty array. *)

type 'a entry
(** How one entry prints, without spaces. *)

val int_entry : int entry

val hex_entry : float entry
(** [%h] hex floats: exact round trip, and no [' '] or [':']. *)

val pair_entry : 'a entry -> 'b entry -> ('a * 'b) entry
(** ["a:b"]; neither side may print a [':']. *)

val packed : 'a entry -> 'a array conv
(** An entry that does not parse reads as a malformed field. *)

type ('r, 'a) t
(** A row written from an ['r] and read back as an ['a]. *)

val field :
  ?absent:'a -> ?omit:'a -> string -> 'a conv -> ('r -> 'a) -> ('r, 'a) t
(** A required field, unless it has a default that a missing field
    reads as: [~absent] for a field older files lack, [~omit] for one
    that is also left out whenever its value equals the default. *)

val ( let+ ) : ('r, 'a) t -> ('a -> 'b) -> ('r, 'b) t
val ( and+ ) : ('r, 'a) t -> ('r, 'b) t -> ('r, 'a * 'b) t

val on : ('r -> 's) -> ('s, 'a) t -> ('r, 'a) t
(** A row over the part of a record [get] returns. *)

val list : ('r, 'a) t list -> ('r, 'a list) t

val optional : ('r -> 's option) -> ('s, 'a) t -> ('r, 'a option) t
(** Fields written all or none: the row reads as [None] when none of
    them is present, and otherwise all must be. *)

type ('r, 'a) case

val case : string -> ('r -> 's option) -> ('s, 'a) t -> ('r, 'a) case
(** [case tag prj row]: the values [prj] accepts are stored under [tag],
    as the fields [row] writes from what [prj] returns. *)

val cases : string -> ('r, 'a) case list -> ('r, 'a) t
(** A tagged union: the string field [key] holds the tag of the first
    case that accepts the value, and that case's fields follow it.
    Reading dispatches on the stored tag; a tag no case names reads as
    a {!Json.Parse_error} ("unknown <key> ...").  Writing a value no
    case accepts raises [Invalid_argument]. *)

val fields :
  ?tail:(string * Json.value) list ->
  ('r, _) t ->
  'r ->
  (string * Json.value) list
(** The row's fields in declaration order, then [tail]. *)

val decode : (_, 'a) t -> (string * Json.value) list -> 'a
(** Raises {!Json.Parse_error} naming the first missing or malformed
    field.  Fields the row does not declare are ignored. *)
