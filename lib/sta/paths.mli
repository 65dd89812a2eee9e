(** Critical path enumeration: best-first search over partial backward
    walks keyed by the exact completion bound (the implicit path
    representation of modern timers, in plain best-first form). Every pop
    of a complete path is the next-worst path into the endpoint. *)

type path = {
  endpoint : int;
  arrival : float; (* data arrival at the endpoint along this path *)
  slack : float; (* end_required(endpoint) - arrival *)
  pins : int array; (* startpoint first, endpoint last *)
  arcs : int array; (* arcs.(i) connects pins.(i) -> pins.(i+1) *)
}

(** Total order "worst first": larger arrival first, ties broken on the
    endpoint pin id and then on the pin sequence lexicographically, so
    equal-arrival paths order reproducibly (across runs and domain
    counts). Equal only for identical paths. *)
val compare_worst : path -> path -> int

(** Total order "most violating first": smaller slack first, same
    structural tie-break as {!compare_worst}. *)
val compare_by_slack : path -> path -> int

(** Search scratch: the arena of partial walks and the queue. Reusable
    across calls (one per domain); each search resets it. *)
type scratch

val create_scratch : unit -> scratch

(** Up to [k] complete paths into [endpoint], worst (largest arrival)
    first ({!compare_worst} order); [] when unreachable. [arr] must hold
    current arrivals. [scratch] (fresh when omitted) must not be shared
    by concurrent calls. *)
val k_worst :
  ?scratch:scratch -> Graph.t -> float array -> endpoint:int -> k:int -> path list

(** The single worst path into [endpoint]. *)
val worst_path : Graph.t -> float array -> endpoint:int -> path option

(** Structural validity + arrival consistency; used by tests. *)
val is_valid : Graph.t -> path -> bool
