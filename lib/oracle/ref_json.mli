(** Reference JSON encoder: the plain per-character, per-[Printf]
    implementation of the {!Obs.Json} wire format, kept as the byte-for-
    byte arbiter of the fast encoder. *)

(** Encode [v]; must equal [Obs.Json.to_string v] for every [v]. *)
val to_string : Obs.Json.t -> string

(** The wire form of one float ([null] when non-finite). *)
val float_repr : float -> string
