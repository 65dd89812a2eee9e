(** Arrival / required propagation and slack computation (late/max
    analysis — setup checks, the ICCAD2015 TDP contest metric). Pins
    unreachable from startpoints keep arrival -inf and never violate. *)

type t = {
  arr : float array;
  req : float array;
  slack : float array;
  levels : int array array; (* pins bucketed by topological depth, built once *)
}

val create : Graph.t -> t

(** Forward arrivals, backward required times, slacks; call after the arc
    delays were refreshed. Levelized: each depth level fans out across
    [Util.Parallel] domains (max/min are exact, so results are bitwise
    equal to the sequential sweep). [obs] wraps the sweeps in
    [sta.arrival] / [sta.required] spans. *)
val update : ?obs:Obs.Ctx.t -> t -> Graph.t -> unit

(** Slack at an endpoint pin (infinite when unreachable). *)
val endpoint_slack : t -> Graph.t -> int -> float

(** Worst negative slack (0 when all met). *)
val wns : t -> Graph.t -> float

(** Sum of negative endpoint slacks. *)
val tns : t -> Graph.t -> float

(** The first [n] endpoints in the worst-first total order (slack, then
    pin id), failing ones only when [failing_only], selected in
    O(E log n) without sorting the rest. *)
val worst_endpoints : t -> Graph.t -> n:int -> failing_only:bool -> int array

(** Number of endpoints with negative slack (no list is built). *)
val num_failing : t -> Graph.t -> int

(** Endpoints with negative slack, worst first. *)
val failing_endpoints : t -> Graph.t -> int list
