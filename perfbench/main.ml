(* The repository benchmark (see README.md next to this file).

   Three single-domain workloads, each doing a fixed amount of work so
   that every QoR number is a pure function of the workload seed:

   - tdp-20k: load a Bookshelf bundle, one-shot Efficient-TDP, save .pl;
   - gp-100k: the same with the vanilla (DREAMPlace) flow at 100k cells;
   - eco-10k: one closed-loop client driving an in-process
     [Service.Engine]: load + cold place, then fixed ECO cycles.

   The program is reached only through public functions. The traced pass
   ([--trace 1]) attaches an in-memory sink to the spans and counters the
   program already emits and adds outside-in timers and [Gc.quick_stat]
   deltas around calls into each layer.

   The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The line before it is a
   host stamp, for telling host drift from a regression. *)

module D = Netlist.Design
module J = Obs.Json
module M = Evalkit.Metrics

let now = Unix.gettimeofday

let eprintf = Printf.eprintf

(* ------------------------------------------------------------------ *)
(* Workloads and sizes *)

type kind = One_shot of Tdp.Flow.method_ | Eco

(* [loads]: one-shot bundle loads timed for setup_s; a 20k load takes
   ~0.1 s, so it gets more samples than a 100k one (~0.7 s). *)
type workload = { name : string; kind : kind; cells : int; loads : int }

let workloads =
  [
    {
      name = "tdp-20k";
      kind = One_shot (Tdp.Flow.Efficient Tdp.Config.default);
      cells = 20_000;
      loads = 10;
    };
    { name = "gp-100k"; kind = One_shot Tdp.Flow.Vanilla; cells = 100_000; loads = 3 };
    { name = "eco-10k"; kind = Eco; cells = 10_000; loads = 0 };
  ]

(* How much work one run does. Fixed per mode, never scaled by elapsed
   time: eco QoR depends on the cycle count, so a time-boxed loop would
   make it depend on the host. *)
type sizes = {
  jobs : int; (* one-shot: untraced jobs, each on a fresh load *)
  queries : int; (* one-shot: warm report_timing queries on the result *)
  sessions : int; (* eco: engine sessions, each load + cold place *)
  cycles : int; (* eco: ECO cycles per session *)
  cycle_queries : int; (* eco: warm queries after each cycle *)
}

(* About 200 queries per run put 20 samples beyond p90 and stretch the
   query window to several seconds: a warm query takes 10-40 ms, and
   the host's speed wanders on a scale of seconds. Eco: 2 sessions x 3
   cycles x 34 queries = 204 queries and 6 cycle samples; every cycle
   index repeats in both sessions. A session's set-up is a cold place
   (~7 s at 10k cells), which is what caps the session count. *)
let measured = { jobs = 1; queries = 200; sessions = 2; cycles = 3; cycle_queries = 34 }

(* Tiny designs that still run every code path, the repeat checks
   included (two jobs per one-shot run). *)
let smoke = { jobs = 2; queries = 12; sessions = 2; cycles = 2; cycle_queries = 6 }

let smoke_cells = 1_500

(* The warm timing query of every workload. *)
let query_n = 500

let query_k = 4

let eco_frac = 0.01

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted xs = List.sort compare xs

(* Nearest-rank quantile: the value with [ceil (q n)] samples at or
   below it. *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* ------------------------------------------------------------------ *)
(* Operations, checks and injected faults *)

let attempted = ref 0

let failed = ref 0

let op_failed = ref false

let check what ok =
  if not ok then begin
    op_failed := true;
    eprintf "perfbench: check failed: %s\n%!" what
  end

(* One counted operation: it fails if [f] raises or any [check] inside
   it fails. *)
let operation what f =
  incr attempted;
  op_failed := false;
  match f () with
  | v ->
      if !op_failed then incr failed;
      Some v
  | exception e ->
      incr failed;
      eprintf "perfbench: %s raised %s\n%!" what (Printexc.to_string e);
      None

(* [--fault NAME] deliberately breaks one output so the selftest can
   show the matching check fires:
   - overlap: stack one movable cell on another after the job/cycle;
   - metric:  tamper the HPWL the flow reports;
   - pl:      save a .pl with one cell moved;
   - repeat:  tamper the QoR of every job/cycle after the first run of
              its index;
   - trace:   tamper the traced job's QoR;
   - query:   tamper the TNS read from the first report_timing reply. *)
let faults = [ "overlap"; "metric"; "pl"; "repeat"; "trace"; "query" ]

let fault = ref ""

let fault_is name = !fault = name

let tamper (m : M.t) = { m with M.hpwl = m.M.hpwl +. 1.0 }

let make_overlap (d : D.t) =
  match D.movable_ids d with
  | a :: b :: _ ->
      d.D.x.{a} <- d.D.x.{b};
      d.D.y.{a} <- d.D.y.{b}
  | _ -> ()

let bits = Int64.bits_of_float

let same_float a b = Int64.equal (bits a) (bits b)

let no_metrics = { M.hpwl = nan; tns = nan; wns = nan; num_failing = 0; num_endpoints = 0 }

let same_metrics (a : M.t) (b : M.t) =
  same_float a.M.hpwl b.M.hpwl && same_float a.M.tns b.M.tns && same_float a.M.wns b.M.wns
  && a.M.num_failing = b.M.num_failing
  && a.M.num_endpoints = b.M.num_endpoints

(* A fresh load of the bundle with the saved .pl overlaid, scored. *)
let overlay_metrics ~aux ~pl =
  let fresh = Formats.Auto.load aux in
  Formats.Bookshelf.apply_pl fresh pl;
  M.evaluate fresh

(* Save the placement to [pl]; the [pl] fault writes one cell moved to
   the die's lower-left corner. *)
let save_pl pl (d : D.t) =
  if fault_is "pl" then begin
    let a = List.hd (D.movable_ids d) in
    let x = d.D.x.{a} and y = d.D.y.{a} in
    d.D.x.{a} <- d.D.die.Geom.Rect.xl +. (d.D.w.{a} /. 2.0);
    d.D.y.{a} <- d.D.die.Geom.Rect.yl +. (d.D.h.{a} /. 2.0);
    Formats.Auto.save pl d;
    d.D.x.{a} <- x;
    d.D.y.{a} <- y
  end
  else Formats.Auto.save pl d

(* ------------------------------------------------------------------ *)
(* Service requests and replies *)

let request ~id op params =
  J.to_string (J.Obj [ ("id", J.String id); ("op", J.String op); ("params", J.Obj params) ])

let report_timing_line design =
  request ~id:"q" "report_timing"
    [ ("design", J.String design); ("n", J.Int query_n); ("k", J.Int query_k) ]

let reply_ok reply = J.member "ok" reply = Some (J.Bool true)

let rec path_get j = function
  | [] -> Some j
  | k :: rest -> Option.bind (J.member k j) (fun v -> path_get v rest)

let get_float j path = Option.bind (path_get j path) J.to_float

let get_int j path = Option.bind (path_get j path) J.to_int

(* Flow metrics as carried by a place/replace reply. *)
let reply_metrics reply path =
  let f k = Option.value ~default:nan (get_float reply (path @ [ k ])) in
  let i k = Option.value ~default:(-1) (get_int reply (path @ [ k ])) in
  {
    M.hpwl = f "hpwl";
    tns = f "tns";
    wns = f "wns";
    num_failing = i "num_failing";
    num_endpoints = i "num_endpoints";
  }

(* The timing a report_timing reply states, as (tns, wns). *)
let reply_timing reply =
  let f k = Option.value ~default:nan (get_float reply [ "result"; k ]) in
  let tns = f "tns" in
  ((if fault_is "query" then tns -. 1.0 else tns), f "wns")

let same_timing (a, b) (c, d) = same_float a c && same_float b d

let svc_failed = ref 0

(* Send one request line: returns the reply, the handle_line seconds and
   the encode seconds. An error reply counts in [svc.failed] and fails
   the enclosing operation. *)
let send engine line =
  let t0 = now () in
  let reply = Service.Engine.handle_line engine line in
  let t1 = now () in
  let wire = J.to_string reply in
  let t2 = now () in
  ignore (Sys.opaque_identity wire);
  if not (reply_ok reply) then begin
    incr svc_failed;
    check ("reply ok: " ^ String.sub wire 0 (min 200 (String.length wire))) false
  end;
  (reply, t1 -. t0, t2 -. t1)

(* ------------------------------------------------------------------ *)
(* Per-layer collection (traced pass) *)

(* The spans and counters the program emits, gathered from one live
   context through an aggregating sink attached for the measured
   stretch. *)
type tracer = { ctx : Obs.Ctx.t; agg : Obs.Agg.t }

let tracer () =
  let ctx = Obs.Ctx.create () in
  { ctx; agg = Obs.Agg.create () }

let metric_value ctx name =
  match Obs.Ctx.metric ctx name with
  | Some (Obs.Metric.Counter r) | Some (Obs.Metric.Gauge r) -> !r
  | _ -> 0.0

let counters =
  [
    "gp.iters";
    "guard.rollbacks";
    "sta.full_updates";
    "sta.incremental_updates";
    "extraction.rounds";
    "extraction.paths";
  ]

(* Run [f] with the aggregator attached; returns its result and the
   counter deltas over the call. *)
let traced tr f =
  let before = List.map (fun c -> (c, metric_value tr.ctx c)) counters in
  let sink = Obs.Agg.sink tr.agg in
  Obs.Ctx.add_sink tr.ctx sink;
  let v = Fun.protect ~finally:(fun () -> Obs.Ctx.remove_sink tr.ctx sink) f in
  (v, List.map (fun (c, b) -> (c, metric_value tr.ctx c -. b)) before)

let span_total tr name = Obs.Agg.total tr.agg name

let span_self tr name = match Obs.Agg.get tr.agg name with Some s -> s.Obs.Agg.self | None -> 0.0

(* The span- and counter-derived layer metrics, divided by [per] (jobs
   or cycles). A layer the workload does not enter reads 0. *)
let span_layers tr deltas ~per =
  let c name = List.assoc name deltas /. per in
  let s name = span_total tr name /. per in
  let iters = List.assoc "gp.iters" deltas in
  [
    ("gp.iters", c "gp.iters", "count");
    ("gp.density_s", s "density", "s");
    ("gp.wl_grad_s", s "wl_grad", "s");
    ("gp.optimizer_s", s "optimizer", "s");
    ("gp.iter_self_s", span_self tr "gp_iter" /. per, "s");
    ("gp.legalize_s", s "legalize", "s");
    ("gp.detailed_s", s "detailed", "s");
    ( "gp.rollbacks_per_iter",
      (if iters > 0.0 then List.assoc "guard.rollbacks" deltas /. iters else 0.0),
      "ratio" );
    ("sta.delay_s", s "sta.delay", "s");
    ("sta.propagate_s", (span_total tr "sta.arrival" +. span_total tr "sta.required") /. per, "s");
    ("sta.full_updates", c "sta.full_updates", "count");
    ("sta.incremental_updates", c "sta.incremental_updates", "count");
    ("tdp.pp_grad_s", s "pp_grad", "s");
    ("tdp.extraction_s", s "extraction", "s");
    ("tdp.flow_self_s", span_self tr "flow" /. per, "s");
    ("tdp.rounds", c "extraction.rounds", "count");
    ("tdp.paths", c "extraction.paths", "count");
    ("tdp.pairs", metric_value tr.ctx "extraction.num_pairs", "count");
    ("evalkit.evaluate_s", s "evaluate", "s");
  ]

(* Outside-in STA probes on a placed design: one full re-time of a warm
   timer (the unit of work repeated every extraction round) and the
   path enumeration of one warm query (all endpoints, as the service
   asks). Medians of a few calls. *)
let sta_probes (d : D.t) =
  let tm = Sta.Timer.create d in
  Sta.Timer.update tm;
  let retimes =
    List.init 3 (fun _ ->
        Sta.Timer.invalidate tm;
        let w0 = minor_words () in
        let t0 = now () in
        Sta.Timer.update tm;
        let t1 = now () in
        (t1 -. t0, minor_words () -. w0))
  in
  let paths =
    List.init 5 (fun _ ->
        let t0 = now () in
        ignore
          (Sys.opaque_identity
             (Sta.Timer.report_timing_endpoint ~failing_only:false tm ~n:query_n ~k:query_k));
        1e3 *. (now () -. t0))
  in
  [
    ("sta.retime_s", median (List.map fst retimes), "s");
    ("sta.retime_mwords", median (List.map snd retimes) /. 1e6, "Mwords");
    ("sta.paths_ms", median paths, "ms");
  ]

(* ------------------------------------------------------------------ *)
(* Results shared by both workload kinds *)

type run = {
  mutable setup_s : float list;
  mutable job_s : float list;
  mutable query_ms : float list; (* handle_line + encode *)
  mutable handle_ms : float list;
  mutable encode_ms : float list;
  mutable first_query_s : float list;
  mutable replace_s : float list;
  mutable load_s : float list;
  mutable load_mwords : float list;
  mutable save_s : float list;
  mutable minor_mwords : float list; (* per job / cycle *)
  mutable major_collections : float list;
  mutable final : M.t option; (* QoR of the last job / cycle *)
  mutable final_gp : M.t option; (* GP-stage QoR, one-shot only *)
  mutable layers : (string * float * string) list; (* traced pass *)
}

let new_run () =
  {
    setup_s = [];
    job_s = [];
    query_ms = [];
    handle_ms = [];
    encode_ms = [];
    first_query_s = [];
    replace_s = [];
    load_s = [];
    load_mwords = [];
    save_s = [];
    minor_mwords = [];
    major_collections = [];
    final = None;
    final_gp = None;
    layers = [];
  }

let push l v = l @ [ v ]

(* Warm report_timing queries: each is handle_line plus encoding the
   reply, and each must restate the timing [expect] holds. *)
let warm_queries run engine ~design ~count ~expect =
  let line = report_timing_line design in
  for _ = 1 to count do
    ignore
      (operation "query" (fun () ->
           let reply, th, te = send engine line in
           check "warm query timing" (same_timing (reply_timing reply) expect);
           run.handle_ms <- push run.handle_ms (1e3 *. th);
           run.encode_ms <- push run.encode_ms (1e3 *. te);
           run.query_ms <- push run.query_ms (1e3 *. (th +. te))))
  done

(* ------------------------------------------------------------------ *)
(* One-shot workloads *)

type job = { result : Tdp.Flow.result; metrics : M.t; job_s : float; save_s : float }

let run_job ~obs ~meth ~pl (d : D.t) =
  let w0 = Gc.quick_stat () in
  let t0 = now () in
  let result = Tdp.Flow.run ~obs meth d in
  let t1 = now () in
  save_pl pl d;
  let t2 = now () in
  let w1 = Gc.quick_stat () in
  let metrics = result.Tdp.Flow.metrics in
  let metrics = if fault_is "metric" then tamper metrics else metrics in
  ( { result; metrics; job_s = t2 -. t0; save_s = t2 -. t1 },
    (w1.Gc.minor_words -. w0.Gc.minor_words) /. 1e6,
    float_of_int (w1.Gc.major_collections - w0.Gc.major_collections) )

(* The placement [d] holds is legal and scores as the flow said. *)
let check_placed (d : D.t) (m : M.t) =
  if fault_is "overlap" then make_overlap d;
  check "legal placement" (Gp.Legalize.is_legal d);
  check "evaluate = flow metrics" (same_metrics (M.evaluate d) m)

let check_overlay ~aux ~pl (m : M.t) =
  check "saved .pl reproduces metrics" (same_metrics (overlay_metrics ~aux ~pl) m)

(* The output checks every one-shot job passes. *)
let check_job ~aux ~pl (d : D.t) (job : job) =
  check_placed d job.metrics;
  check_overlay ~aux ~pl job.metrics

let one_shot ~sizes ~loads ~trace ~work ~aux meth =
  let run = new_run () in
  (* Set-up: bundle loads, the first [jobs] kept for the jobs. *)
  let designs = ref [] in
  for i = 0 to max loads sizes.jobs - 1 do
    ignore
      (operation "load" (fun () ->
           let w0 = minor_words () in
           let t0 = now () in
           let d = Formats.Auto.load aux in
           let t1 = now () in
           run.setup_s <- push run.setup_s (t1 -. t0);
           run.load_s <- push run.load_s (t1 -. t0);
           run.load_mwords <- push run.load_mwords ((minor_words () -. w0) /. 1e6);
           if i < sizes.jobs then designs := push !designs d));
    (* Untimed: collect the loads not kept, so that [peak_rss_mb] is the
       job's peak, not a pile of set-up garbage. *)
    Gc.full_major ()
  done;
  let placed = ref None in
  List.iteri
    (fun j d ->
      ignore
        (operation "job" (fun () ->
             let pl = Filename.concat work (Printf.sprintf "job%d.pl" j) in
             let job, mw, majors = run_job ~obs:Obs.Ctx.null ~meth ~pl d in
             let qor = if j > 0 && fault_is "repeat" then tamper job.metrics else job.metrics in
             run.job_s <- push run.job_s job.job_s;
             run.save_s <- push run.save_s job.save_s;
             run.minor_mwords <- push run.minor_mwords mw;
             run.major_collections <- push run.major_collections majors;
             check_job ~aux ~pl d job;
             (match run.final with
             | Some first -> check "job repeats QoR" (same_metrics first qor)
             | None ->
                 run.final <- Some qor;
                 run.final_gp <- Some job.result.Tdp.Flow.metrics_gp;
                 placed := Some (d, job.metrics)))))
    !designs;
  designs := [];
  (* Warm timing queries against the first job's placement, through the
     same engine path a daemon client uses. *)
  (match !placed with
  | None -> ()
  | Some (d, m) ->
      let engine = Service.Engine.create () in
      ignore (Service.State.add (Service.Engine.state engine) ~name:"placed" d);
      let expect = (m.M.tns, m.M.wns) in
      ignore
        (operation "first query" (fun () ->
             let reply, th, te = send engine (report_timing_line "placed") in
             run.first_query_s <- push run.first_query_s (th +. te);
             check "first query timing = flow metrics" (same_timing (reply_timing reply) expect)));
      warm_queries run engine ~design:"placed" ~count:sizes.queries ~expect);
  placed := None;
  if trace then begin
    (* Traced pass: one more job on a fresh load with the sink attached. *)
    let tr = tracer () in
    let d = Formats.Auto.load aux in
    let pl = Filename.concat work "traced.pl" in
    ignore
      (operation "traced job" (fun () ->
           let (job, _, _), deltas = traced tr (fun () -> run_job ~obs:tr.ctx ~meth ~pl d) in
           check_job ~aux ~pl d job;
           let qor = if fault_is "trace" then tamper job.metrics else job.metrics in
           (match run.final with
           | Some m -> check "traced QoR = untraced QoR" (same_metrics m qor)
           | None -> ());
           let gp = job.result.Tdp.Flow.metrics_gp in
           run.layers <-
             span_layers tr deltas ~per:1.0
             @ sta_probes d
             @ [
                 ("qor.gp_hpwl", gp.M.hpwl, "um");
                 ("qor.gp_tns_ps", Float.abs gp.M.tns, "ps");
                 ("trace.overhead_frac", job.job_s /. median run.job_s, "ratio");
               ]))
  end;
  run

(* ------------------------------------------------------------------ *)
(* The ECO loop *)

(* QoR of one eco session: the cold place, then every cycle. *)
type session = { place_qor : M.t option; cycle_qor : M.t option list }

let eco_session ~sizes ~work ~aux ~obs ~tracer:tr ~reference run s =
  let engine = Service.Engine.create ~obs () in
  let entry_design () =
    match Service.State.find (Service.Engine.state engine) "eco" with
    | Ok e -> e.Service.State.design
    | Error msg -> failwith msg
  in
  let repeat_check what mine theirs =
    match (mine, theirs) with
    | Some a, Some b -> check (what ^ " repeats untraced QoR") (same_metrics a b)
    | _ -> ()
  in
  (* Set-up: load + cold Efficient place, until the first ECO can be
     served. *)
  let place_qor =
    operation "setup" (fun () ->
        let w0 = minor_words () in
        let _, th, te =
          send engine
            (request ~id:"l" "load" [ ("path", J.String aux); ("name", J.String "eco") ])
        in
        let load_mwords = (minor_words () -. w0) /. 1e6 in
        let r_place, th', te' =
          send engine
            (request ~id:"p" "place" [ ("design", J.String "eco"); ("flow", J.String "efficient") ])
        in
        let load_s = th +. te in
        run.setup_s <- push run.setup_s (load_s +. th' +. te');
        run.load_s <- push run.load_s load_s;
        run.load_mwords <- push run.load_mwords load_mwords;
        let m = reply_metrics r_place [ "result"; "metrics" ] in
        check_placed (entry_design ()) m;
        repeat_check "cold place" (Some m) (Option.bind reference (fun r -> r.place_qor));
        m)
  in
  let tr_deltas = ref [] in
  let cycle c =
    operation "cycle" (fun () ->
      let w0 = Gc.quick_stat () in
      let r_rep, th, te =
        send engine
          (request ~id:"r" "replace"
             [
               ("design", J.String "eco");
               ("random_frac", J.Float eco_frac);
               ("random_seed", J.Int c);
             ])
      in
      let r_q, qh, qe = send engine (report_timing_line "eco") in
      let w1 = Gc.quick_stat () in
      run.job_s <- push run.job_s (th +. te +. qh +. qe);
      run.replace_s <- push run.replace_s (th +. te);
      run.first_query_s <- push run.first_query_s (qh +. qe);
      run.minor_mwords <- push run.minor_mwords ((w1.Gc.minor_words -. w0.Gc.minor_words) /. 1e6);
      run.major_collections <-
        push run.major_collections
          (float_of_int (w1.Gc.major_collections - w0.Gc.major_collections));
      let m = reply_metrics r_rep [ "result"; "result"; "metrics" ] in
      let m = if fault_is "metric" then tamper m else m in
      let expect = (m.M.tns, m.M.wns) in
      check "first report_timing = replace result" (same_timing (reply_timing r_q) expect);
      run.final_gp <- Some (reply_metrics r_rep [ "result"; "result"; "metrics_gp" ]);
      check_placed (entry_design ()) m;
      (* Against the first session: a repeat, or for the traced
         session the traced = untraced check. *)
      let qor =
        if (s > 0 && fault_is "repeat") || (tr <> None && fault_is "trace") then tamper m
        else m
      in
      repeat_check
        (if tr = None then Printf.sprintf "cycle %d" c else "traced cycle")
        (Some qor)
        (Option.bind reference (fun r -> List.nth r.cycle_qor c));
      (qor, expect))
  in
  let cycles () =
    List.init sizes.cycles (fun c ->
        Option.map
          (fun (qor, expect) ->
            warm_queries run engine ~design:"eco" ~count:sizes.cycle_queries ~expect;
            qor)
          (cycle c))
  in
  let cycle_qor =
    match tr with
    | None -> cycles ()
    | Some tr ->
        let v, deltas = traced tr cycles in
        tr_deltas := deltas;
        v
  in
  (* The session's final placement, saved and overlaid on a fresh load. *)
  (match List.rev cycle_qor with
  | Some last :: _ ->
      ignore
        (operation "save" (fun () ->
             let pl = Filename.concat work (Printf.sprintf "session%d.pl" s) in
             let t0 = now () in
             save_pl pl (entry_design ());
             run.save_s <- push run.save_s (now () -. t0);
             check_overlay ~aux ~pl last));
      run.final <- Some last
  | _ -> ());
  ({ place_qor; cycle_qor }, entry_design, !tr_deltas)

let eco ~sizes ~trace ~work ~aux =
  let run = new_run () in
  let reference = ref None in
  for s = 0 to sizes.sessions - 1 do
    let sess, _, _ =
      eco_session ~sizes ~work ~aux ~obs:Obs.Ctx.null ~tracer:None ~reference:!reference run s
    in
    if !reference = None then reference := Some sess;
    Gc.full_major ()
  done;
  if trace then begin
    (* One more session with the sink attached; its timings go to a
       separate record so the untraced lists stay untraced. *)
    let tr = tracer () in
    let trun = new_run () in
    let _, design, deltas =
      eco_session ~sizes ~work ~aux ~obs:tr.ctx ~tracer:(Some tr) ~reference:!reference trun
        sizes.sessions
    in
    let gp = Option.value run.final_gp ~default:no_metrics in
    run.layers <-
      span_layers tr deltas ~per:(float_of_int sizes.cycles)
      @ sta_probes (design ())
      @ [
          ("qor.gp_hpwl", gp.M.hpwl, "um");
          ("qor.gp_tns_ps", Float.abs gp.M.tns, "ps");
          ("trace.overhead_frac", median trun.job_s /. median run.job_s, "ratio");
        ]
  end;
  run

(* ------------------------------------------------------------------ *)
(* Host stamp *)

(* A fixed pure-OCaml loop, timed at the start and the end of a run and
   reported for information only: a slower loop means a slower host,
   not a slower program. *)
let reference_loop () =
  let t0 = now () in
  let x = ref 1 and acc = ref 0.0 in
  for _ = 1 to 30_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fff_ffff;
    acc := !acc +. Float.of_int !x
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let loadavg () =
  match In_channel.with_open_text "/proc/loadavg" In_channel.input_all with
  | s -> (
      match String.split_on_char ' ' (String.trim s) with
      | a :: b :: c :: _ -> J.List (List.map (fun v -> J.Float (float_of_string v)) [ a; b; c ])
      | _ -> J.Null)
  | exception _ -> J.Null

(* ------------------------------------------------------------------ *)
(* Output *)

let end_to_end run =
  let m = Option.value run.final ~default:no_metrics in
  [
    ("setup_s", median run.setup_s, "s");
    ("job_s", median run.job_s, "s");
    ("query_p90_ms", quantile 0.9 run.query_ms, "ms");
    ("peak_rss_mb", float_of_int (Obs.Resource.peak_rss_bytes ()) /. 1e6, "MB");
    ("hpwl", m.M.hpwl, "um");
  ]

let per_layer run =
  let m = Option.value run.final ~default:no_metrics in
  let med l = if l = [] then 0.0 else median l in
  [
    ("formats.load_s", med run.load_s, "s");
    ("formats.load_mwords", med run.load_mwords, "Mwords");
    ("formats.save_s", med run.save_s, "s");
  ]
  @ run.layers
  @ [
      ("svc.replace_s", med run.replace_s, "s");
      ("svc.first_query_s", med run.first_query_s, "s");
      ("svc.query_p50_ms", med run.query_ms, "ms");
      ("svc.query_handle_ms", med run.handle_ms, "ms");
      ("svc.query_encode_ms", med run.encode_ms, "ms");
      ("svc.failed", float_of_int !svc_failed, "count");
      ("gc.minor_mwords", med run.minor_mwords, "Mwords");
      ("gc.major_collections", med run.major_collections, "count");
      ("qor.tns_ps", Float.abs m.M.tns, "ps");
      ("qor.wns_ps", Float.abs m.M.wns, "ps");
    ]

let metrics_json l =
  J.Obj
    (List.map
       (fun (name, v, unit) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
       l)

(* ------------------------------------------------------------------ *)
(* Entry point *)

(* Generate the design in a child process, so that neither its memory
   nor its heap state reaches the measured process. *)
let prepare ~cells ~seed ~aux =
  let args =
    [|
      Sys.executable_name; "--prepare"; "--cells"; string_of_int cells;
      "--seed"; string_of_int seed; "--out"; aux;
    |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "design generation failed"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Remove the run's directory, and its parent when no other run uses it. *)
let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end;
  try Sys.rmdir (Filename.dirname dir) with Sys_error _ -> ()

let usage () =
  eprintf
    "usage: main.exe --workload (%s) --seed N [--seconds S] [--trace 0|1] [--smoke]\n\
    \       [--fault (%s)]\n"
    (String.concat "|" (List.map (fun w -> w.name) workloads))
    (String.concat "|" faults);
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref 0 in
  let is_smoke = ref false in
  let prepare_only = ref false and cells = ref 0 and out = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (the design is generated from it)");
      ("--seconds", Arg.Set_int seconds, "S nominal run length (stamped; the work is fixed)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer pass (1)");
      ("--smoke", Arg.Set is_smoke, " tiny designs and small counts, for the selftest");
      ("--fault", Arg.Set_string fault, "NAME break one output on purpose");
      ("--prepare", Arg.Set prepare_only, " (internal) generate a design bundle and exit");
      ("--cells", Arg.Set_int cells, "N (internal) design size for --prepare");
      ("--out", Arg.Set_string out, "AUX (internal) bundle path for --prepare");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  Obs.Log.set_level Obs.Log.Warn;
  Util.Parallel.set_num_domains 1;
  if !prepare_only then begin
    let d = Workloads.Suite.load_sized ~seed:!seed ~calibrate:true ~cells:!cells () in
    Formats.Auto.save !out d;
    exit 0
  end;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let bad_fault = !fault <> "" && not (List.mem !fault faults) in
  if !seed < 0 || (!trace <> 0 && !trace <> 1) || bad_fault then usage ();
  let sizes = if !is_smoke then smoke else measured in
  let cells = if !is_smoke then smoke_cells else w.cells in
  let trace = !trace = 1 in
  (* Generated bundles and saved .pl files; removed when the run ends. *)
  let dir =
    Filename.concat "perfbench/_work" (Printf.sprintf "%s-%d-%d" w.name !seed (Unix.getpid ()))
  in
  mkdir_p dir;
  let aux = Filename.concat dir "design.aux" in
  let load_start = loadavg () in
  let ref_start = reference_loop () in
  let run =
    Fun.protect
      ~finally:(fun () -> remove_dir dir)
      (fun () ->
        prepare ~cells ~seed:!seed ~aux;
        match w.kind with
        | One_shot meth -> one_shot ~sizes ~loads:w.loads ~trace ~work:dir ~aux meth
        | Eco -> eco ~sizes ~trace ~work:dir ~aux)
  in
  let ref_end = reference_loop () in
  (* Raw samples on stderr, for reading a run's noise. *)
  let samples name l =
    eprintf "perfbench: %s samples: %s\n" name
      (String.concat " " (List.map (Printf.sprintf "%.4g") l))
  in
  samples "setup_s" run.setup_s;
  samples "job_s" run.job_s;
  let stamp =
    J.Obj
      [
        ("workload", J.String w.name);
        ("seed", J.Int !seed);
        ("cells", J.Int cells);
        ("seconds", J.Int !seconds);
        ("trace", J.Bool trace);
        ("smoke", J.Bool !is_smoke);
        ("fault", if !fault = "" then J.Null else J.String !fault);
        ("nproc", J.Int (Domain.recommended_domain_count ()));
        ("domains", J.Int !Util.Parallel.num_domains);
        ("ocaml", J.String Sys.ocaml_version);
        ("loadavg_start", load_start);
        ("loadavg_end", loadavg ());
        ("ref_loop_s_start", J.Float ref_start);
        ("ref_loop_s_end", J.Float ref_end);
      ]
  in
  print_endline (J.to_string (J.Obj [ ("stamp", stamp) ]));
  let metrics = if trace then per_layer run else end_to_end run in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (!failed = 0 && !attempted > 0));
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("metrics", metrics_json metrics);
          ]))
