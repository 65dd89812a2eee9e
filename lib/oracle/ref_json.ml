(** The straightforward JSON encoder [Obs.Json.to_string] must match byte
    for byte: per-character escaping through a private buffer, and every
    float through [Printf] with a [%.12g] round-trip test. *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec to_string (v : Obs.Json.t) =
  match v with
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f -> float_repr f
  | String s -> escape_string s
  | List xs -> "[" ^ String.concat "," (List.map to_string xs) ^ "]"
  | Obj kvs ->
      "{" ^ String.concat "," (List.map (fun (k, v) -> escape_string k ^ ":" ^ to_string v) kvs) ^ "}"
