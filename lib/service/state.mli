(** The daemon's session registry and warm-state cache: one {!entry} per
    loaded design, holding everything worth keeping hot between requests
    — the design DB itself, a lazily built STA timer (timing graph + RC
    trees + propagation scratch), and the last placement result.

    Invalidation rules (enforced by {!note_eco}, documented in
    DESIGN.md §14): cell moves and wire-RC changes only mark the warm
    timer stale (the [replace] that applies them re-places every cell
    next, so an incremental re-time would be discarded unread; arc
    delays are recomputed at the next timing demand — the graph
    survives); a clock retarget goes through [Sta.Timer.set_clock]
    (boundary-condition refresh — the graph survives); net reweighting
    does not touch timing at all. Nothing short of [unload] discards the
    timing graph. *)

type entry = {
  design : Netlist.Design.t;
  mutable timer : Sta.Timer.t option; (* built on first timing demand *)
  mutable placed : bool; (* a placement result exists (warm-start is valid) *)
  mutable last_result : Tdp.Flow.result option;
  mutable generation : int; (* bumped by every mutating op (place/replace/eco) *)
}

type t

val create : unit -> t

(** Register a design under [name], replacing any previous entry (the
    replaced entry's warm state is dropped whole). *)
val add : t -> name:string -> Netlist.Design.t -> entry

(** [Error] names the unknown design and lists what is loaded. *)
val find : t -> string -> (entry, string) result

val unload : t -> string -> bool

(** Loaded names, load order. *)
val names : t -> string list

(** The entry's warm timer, built (and fully timed) on first demand. *)
val timer : ?obs:Obs.Ctx.t -> entry -> Sta.Timer.t

(** Apply the warm-cache invalidation rules for an applied ECO delta:
    moves and RC -> mark stale, clock -> [Sta.Timer.set_clock] refresh.
    No re-time runs here. A cold entry (no timer yet) stays cold —
    building one just to invalidate it would be wasted work. *)
val note_eco : entry -> Eco.applied -> unit
