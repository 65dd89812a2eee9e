(** Critical path enumeration.

    A timing path runs from a startpoint to an endpoint. Enumeration of the
    k worst paths into a given endpoint uses best-first search over partial
    backward walks with the *exact* completion bound: a partial suffix
    (v ~> endpoint, with accumulated suffix delay D) can be completed to a
    full path of arrival at most arr(v) + D, and exactly that value is
    achievable by following worst-arrival predecessors. Keying the queue on
    that bound makes every completed pop the next-worst path — this is the
    implicit path representation used by modern timers (OpenTimer,
    UI-Timer) in its plain best-first form. *)

type path = {
  endpoint : int;
  arrival : float; (* data arrival at the endpoint along this path *)
  slack : float; (* end_required(endpoint) - arrival *)
  pins : int array; (* startpoint first, endpoint last *)
  arcs : int array; (* arc ids, aligned: arcs.(i) connects pins.(i) -> pins.(i+1) *)
}

(* Search scratch. Partial backward walks share their suffixes, so they
   live in an arena of parallel arrays: node [i] is the walk that has
   reached [pin.(i)], whose first arc [arc.(i)] leads to the walk
   [parent.(i)] (-1 at the endpoint), with accumulated suffix delay
   [delay.(i)]. The queue is a binary min-heap of float keys with node
   payloads. A scratch is reset per search and reused across the
   endpoints of one chunk, so steady-state searches allocate only the
   paths they return. *)
type scratch = {
  mutable pin : int array;
  mutable arc : int array;
  mutable parent : int array;
  mutable delay : float array;
  mutable nodes : int;
  mutable keys : float array;
  mutable items : int array;
  mutable size : int;
}

let create_scratch () =
  {
    pin = Array.make 64 0;
    arc = Array.make 64 0;
    parent = Array.make 64 0;
    delay = Array.make 64 0.0;
    nodes = 0;
    keys = Array.make 64 0.0;
    items = Array.make 64 0;
    size = 0;
  }

let grow_int a = Array.append a (Array.make (Array.length a) 0)

let grow_float a = Array.append a (Array.make (Array.length a) 0.0)

let add_node s ~pin ~arc ~parent ~delay =
  if s.nodes = Array.length s.pin then begin
    s.pin <- grow_int s.pin;
    s.arc <- grow_int s.arc;
    s.parent <- grow_int s.parent;
    s.delay <- grow_float s.delay
  end;
  let i = s.nodes in
  s.pin.(i) <- pin;
  s.arc.(i) <- arc;
  s.parent.(i) <- parent;
  s.delay.(i) <- delay;
  s.nodes <- i + 1;
  i

(* Hole-based binary min-heap: strict comparisons, left child first on
   ties, so equal keys pop in an order fixed by the push sequence and the
   search is reproducible. *)
let push s key x =
  if s.size = Array.length s.keys then begin
    s.keys <- grow_float s.keys;
    s.items <- grow_int s.items
  end;
  let i = ref s.size in
  s.size <- s.size + 1;
  while !i > 0 && s.keys.((!i - 1) / 2) > key do
    let p = (!i - 1) / 2 in
    s.keys.(!i) <- s.keys.(p);
    s.items.(!i) <- s.items.(p);
    i := p
  done;
  s.keys.(!i) <- key;
  s.items.(!i) <- x

(* Remove the root; read [keys.(0)] / [items.(0)] first. *)
let pop s =
  s.size <- s.size - 1;
  let n = s.size in
  if n > 0 then begin
    let key = s.keys.(n) and x = s.items.(n) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = if l < n && s.keys.(l) < key then l else !i in
      let m = if r < n && s.keys.(r) < (if m = !i then key else s.keys.(m)) then r else m in
      if m = !i then fin := true
      else begin
        s.keys.(!i) <- s.keys.(m);
        s.items.(!i) <- s.items.(m);
        i := m
      end
    done;
    s.keys.(!i) <- key;
    s.items.(!i) <- x
  end

(* The walk at [node] starts at a startpoint: its arcs, read up the
   parent chain, are already in forward order. *)
let make_path (graph : Graph.t) s ~endpoint ~arrival ~node =
  let len = ref 0 and j = ref node in
  while s.parent.(!j) >= 0 do
    incr len;
    j := s.parent.(!j)
  done;
  let arcs = Array.make !len 0 in
  let pins = Array.make (!len + 1) s.pin.(node) in
  let j = ref node in
  for i = 0 to !len - 1 do
    let a = s.arc.(!j) in
    arcs.(i) <- a;
    pins.(i + 1) <- graph.arc_to.(a);
    j := s.parent.(!j)
  done;
  {
    endpoint;
    arrival;
    slack = graph.end_required.(endpoint) -. arrival;
    pins;
    arcs;
  }

(* Lexicographic comparison of pin-id arrays — the structural tie-break
   that makes path orderings total (and therefore reproducible across
   domain counts and heap layouts). *)
let compare_pins (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then compare la lb
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(** Total order "worst first": larger arrival first, ties broken on
    endpoint pin id, then pins lexicographically. Two paths compare equal
    only when they are the same path. *)
let compare_worst p q =
  let c = compare q.arrival p.arrival in
  if c <> 0 then c
  else
    let c = compare p.endpoint q.endpoint in
    if c <> 0 then c else compare_pins p.pins q.pins

(** Total order "most violating first": smaller slack first, same
    structural tie-break. Used by the pooled report command so goldens
    and n*k extraction are reproducible under slack ties. *)
let compare_by_slack p q =
  let c = compare p.slack q.slack in
  if c <> 0 then c
  else
    let c = compare p.endpoint q.endpoint in
    if c <> 0 then c else compare_pins p.pins q.pins

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(** [k_worst graph arr ~endpoint ~k] returns up to [k] complete paths into
    [endpoint], worst (largest arrival) first. [arr] must hold the current
    arrival times. Returns [] when the endpoint is unreachable. *)
let k_worst ?scratch (graph : Graph.t) (arr : float array) ~endpoint ~k =
  if k <= 0 || not (Float.is_finite arr.(endpoint)) then []
  else begin
    (* Min-heap on the negated completion bound over arena walks. *)
    let s = match scratch with Some s -> s | None -> create_scratch () in
    s.nodes <- 0;
    s.size <- 0;
    push s (-.arr.(endpoint)) (add_node s ~pin:endpoint ~arc:(-1) ~parent:(-1) ~delay:0.0);
    let out = ref [] in
    let count = ref 0 in
    (* Arrival of the k-th completed path. Completion bounds pop in
       non-increasing order, so once a popped bound drops below this no
       remaining path can tie the k-th worst. Until then every tied
       completion is collected, which makes the returned k-subset
       canonical under [compare_worst] even when more than k paths share
       the boundary arrival bitwise (symmetric reconvergent fanin). The
       bound arr(v) + D is exact only in real arithmetic — float
       re-association wobbles it by ~n ulps relative to the completed
       arrival — so the cut-off carries a relative slop well above that
       noise; over-collected near-ties are sorted out by the final
       truncation. *)
    let kth = ref Float.neg_infinity in
    let cutoff = ref Float.neg_infinity in
    let stop = ref false in
    while (not !stop) && s.size > 0 do
      let neg_bound = s.keys.(0) and node = s.items.(0) in
      pop s;
      let bound = -.neg_bound in
      let v = s.pin.(node) in
      if !count >= k && bound < !cutoff then stop := true
      else if graph.is_startpoint.(v) || graph.in_start.(v) = graph.in_start.(v + 1) then begin
        (* Complete path: v has no predecessors to extend through. *)
        if graph.is_startpoint.(v) then begin
          out := make_path graph s ~endpoint ~arrival:bound ~node :: !out;
          incr count;
          if !count = k then begin
            kth := bound;
            cutoff := !kth -. (1e-9 *. (1.0 +. Float.abs !kth))
          end
        end
        (* Non-startpoint sources (dangling pins) are not real paths. *)
      end
      else
        for i = graph.in_start.(v) to graph.in_start.(v + 1) - 1 do
          let a = graph.in_arc.(i) in
          let u = graph.arc_from.(a) in
          if Float.is_finite arr.(u) then begin
            let nd = s.delay.(node) +. graph.arc_delay.(a) in
            push s (-.(arr.(u) +. nd)) (add_node s ~pin:u ~arc:a ~parent:node ~delay:nd)
          end
        done
    done;
    (* Pop order among equal completion bounds depends on heap internals;
       canonicalise with the structural tie-break, then truncate the
       over-collected boundary ties back to k. *)
    take k (List.stable_sort compare_worst (List.rev !out))
  end

(** The single worst path into [endpoint] by following worst-arrival
    predecessors — O(depth), no queue. *)
let worst_path (graph : Graph.t) (arr : float array) ~endpoint =
  match k_worst graph arr ~endpoint ~k:1 with [] -> None | p :: _ -> Some p

(** Validity check used by tests: consecutive pins are linked by the listed
    arcs, the path starts at a startpoint and ends at the endpoint, and the
    arrival equals the sum of delays plus the start arrival. *)
let is_valid (graph : Graph.t) p =
  let n = Array.length p.pins in
  n >= 1
  && graph.is_startpoint.(p.pins.(0))
  && p.pins.(n - 1) = p.endpoint
  && graph.is_endpoint.(p.endpoint)
  && Array.length p.arcs = n - 1
  && (let ok = ref true in
      Array.iteri
        (fun i a ->
          if graph.arc_from.(a) <> p.pins.(i) || graph.arc_to.(a) <> p.pins.(i + 1) then
            ok := false)
        p.arcs;
      !ok)
  &&
  let total =
    Array.fold_left
      (fun acc a -> acc +. graph.arc_delay.(a))
      graph.start_arrival.(p.pins.(0))
      p.arcs
  in
  Float.abs (total -. p.arrival) < 1e-6 *. (1.0 +. Float.abs p.arrival)
