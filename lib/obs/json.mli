(** Minimal JSON values — emitter and parser with no external dependency.

    {2 Wire format}

    The emitted bytes are a stable contract: daemon replies, trace lines,
    reports and goldens are compared byte for byte.
    - A finite float is written as [Printf.sprintf "%.12g"] when that
      reads back ([float_of_string]) to the same float, else as
      [Printf.sprintf "%.17g"] (always exact).
    - A non-finite float (NaN, +-infinity) is written as [null].
    - A string is written between double quotes. The double quote and
      the backslash are escaped with a backslash; newline, carriage
      return and tab as backslash-[n], -[r], -[t]; any other byte below
      0x20 as backslash-[u00xx] (lowercase hex). Every other byte, 0x7f
      and non-ASCII included, is copied unchanged.
    - No whitespace; object keys in the order given. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Encode per the wire format above. *)
val to_string : t -> string

exception Parse_error of string

(** Parse a complete JSON document; raises {!Parse_error}. *)
val parse_exn : string -> t

val parse : string -> (t, string) result

(** Object field lookup ([None] on non-objects / missing keys). *)
val member : string -> t -> t option

(** Numeric coercion: [Int] and [Float] both answer. *)
val to_float : t -> float option

val to_int : t -> int option

val to_string_opt : t -> string option

val to_list : t -> t list option
