(** Arrival / required propagation and slack computation (late/max
    analysis, i.e. setup checks — the ICCAD2015 TDP contest metric).

    Pins unreachable from any startpoint keep arrival = -inf and never
    produce violations; symmetrically for required times.

    The sweeps are levelized: pins are bucketed by topological depth once
    (the graph is static over a placement run), and every pin of a level
    depends only on strictly earlier levels (arrivals) or strictly later
    levels (required times). Each level then fans out across domains —
    the GPU-timer propagation pattern on CPU domains. Max/min are exact,
    so parallel results are bitwise equal to sequential ones. *)

type t = {
  arr : float array;
  req : float array;
  slack : float array;
  levels : int array array; (* pins bucketed by topological depth, sources first *)
}

let build_levels (graph : Graph.t) =
  let np = Graph.num_pins graph in
  let depth = Array.make np 0 in
  Array.iter
    (fun p ->
      for i = graph.out_start.(p) to graph.out_start.(p + 1) - 1 do
        let q = graph.arc_to.(graph.out_arc.(i)) in
        if depth.(p) + 1 > depth.(q) then depth.(q) <- depth.(p) + 1
      done)
    graph.topo;
  let max_depth = Array.fold_left max 0 depth in
  let counts = Array.make (max_depth + 1) 0 in
  Array.iter (fun d -> counts.(d) <- counts.(d) + 1) depth;
  let levels = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make (max_depth + 1) 0 in
  (* Bucket in pin order: deterministic level contents. *)
  for p = 0 to np - 1 do
    let d = depth.(p) in
    levels.(d).(fill.(d)) <- p;
    fill.(d) <- fill.(d) + 1
  done;
  levels

let create graph =
  let np = Graph.num_pins graph in
  {
    arr = Array.make np 0.0;
    req = Array.make np 0.0;
    slack = Array.make np 0.0;
    levels = build_levels graph;
  }

let update ?(obs = Obs.Ctx.null) t (graph : Graph.t) =
  let np = Graph.num_pins graph in
  let arr = t.arr and req = t.req in
  let nlevels = Array.length t.levels in
  (* Forward: arrival times level by level; within a level every pin only
     reads arrivals of strictly earlier levels. *)
  Obs.Ctx.span obs "sta.arrival" (fun () ->
      for l = 0 to nlevels - 1 do
        let level = t.levels.(l) in
        Util.Parallel.for_ ~grain:64 ~name:"sta.arrival.level" (Array.length level) (fun i ->
            let p = level.(i) in
            let a =
              ref
                (if graph.is_startpoint.(p) then graph.start_arrival.(p)
                 else Float.neg_infinity)
            in
            for j = graph.in_start.(p) to graph.in_start.(p + 1) - 1 do
              let arc = graph.in_arc.(j) in
              let cand = arr.(graph.arc_from.(arc)) +. graph.arc_delay.(arc) in
              if cand > !a then a := cand
            done;
            arr.(p) <- !a)
      done);
  (* Backward: required times from the deepest level up, then slacks. *)
  Obs.Ctx.span obs "sta.required" (fun () ->
      for l = nlevels - 1 downto 0 do
        let level = t.levels.(l) in
        Util.Parallel.for_ ~grain:64 ~name:"sta.required.level" (Array.length level) (fun i ->
            let p = level.(i) in
            let r =
              ref (if graph.is_endpoint.(p) then graph.end_required.(p) else Float.infinity)
            in
            for j = graph.out_start.(p) to graph.out_start.(p + 1) - 1 do
              let arc = graph.out_arc.(j) in
              let cand = req.(graph.arc_to.(arc)) -. graph.arc_delay.(arc) in
              if cand < !r then r := cand
            done;
            req.(p) <- !r)
      done;
      Util.Parallel.for_ ~name:"sta.slack" np (fun p ->
          t.slack.(p) <-
            (if Float.is_finite arr.(p) && Float.is_finite req.(p) then req.(p) -. arr.(p)
             else Float.infinity)))

(** Slack at an endpoint pin (infinite when the endpoint is unreachable). *)
let endpoint_slack t (graph : Graph.t) p =
  assert (graph.is_endpoint.(p));
  t.slack.(p)

(** Worst negative slack over all endpoints (0 when none violate). *)
let wns t (graph : Graph.t) =
  Array.fold_left
    (fun acc p ->
      let s = t.slack.(p) in
      if Float.is_finite s then Float.min acc s else acc)
    0.0 graph.endpoints
  |> Float.min 0.0

(** Total negative slack: sum of negative endpoint slacks. *)
let tns t (graph : Graph.t) =
  Array.fold_left
    (fun acc p ->
      let s = t.slack.(p) in
      if Float.is_finite s && s < 0.0 then acc +. s else acc)
    0.0 graph.endpoints

(* Worst slack first; equal slacks order by pin id, so endpoint rankings
   (and everything derived from them — extraction, goldens) are total
   orders, reproducible across runs and domain counts. *)
let compare_endpoint_slack t a b =
  let c = Float.compare t.slack.(a) t.slack.(b) in
  if c <> 0 then c else compare a b

let is_failing t p = Float.is_finite t.slack.(p) && t.slack.(p) < 0.0

(** The first [n] endpoints in the worst-first order (only failing ones
    when [failing_only]). A bounded max-heap keeps the [n] best-ranked
    seen so far — its root is the one ranked last — so the selection is
    O(E log n), and only the kept [n] are sorted. *)
let worst_endpoints t (graph : Graph.t) ~n ~failing_only =
  let cap = max 0 (min n (Array.length graph.endpoints)) in
  let heap = Array.make cap 0 in
  let size = ref 0 in
  let later i j = compare_endpoint_slack t heap.(i) heap.(j) > 0 in
  let swap i j =
    let x = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- x
  in
  let rec sift_up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if later i p then begin
        swap i p;
        sift_up p
      end
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < !size && later l i then l else i in
    let m = if r < !size && later r m then r else m in
    if m <> i then begin
      swap i m;
      sift_down m
    end
  in
  Array.iter
    (fun p ->
      if (not failing_only) || is_failing t p then
        if !size < cap then begin
          heap.(!size) <- p;
          incr size;
          sift_up (!size - 1)
        end
        else if cap > 0 && compare_endpoint_slack t p heap.(0) < 0 then begin
          heap.(0) <- p;
          sift_down 0
        end)
    graph.endpoints;
  let out = Array.sub heap 0 !size in
  Array.sort (compare_endpoint_slack t) out;
  out

(** Number of endpoints with negative slack. *)
let num_failing t (graph : Graph.t) =
  Array.fold_left (fun acc p -> if is_failing t p then acc + 1 else acc) 0 graph.endpoints

(** Endpoints with negative slack, worst first (ties by pin id). *)
let failing_endpoints t graph =
  Array.to_list (worst_endpoints t graph ~n:max_int ~failing_only:true)
