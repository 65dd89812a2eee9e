(** Binary min-heap keyed by floats, carrying arbitrary payloads. For
    max-heap behaviour insert negated keys. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit

(** Smallest key with its payload; raises [Not_found] when empty. *)
val pop : 'a t -> float * 'a

(** Smallest key without removing it; raises [Not_found] when empty. *)
val peek_key : 'a t -> float
