(* The decision-serving workloads, [hot] and [cold]: one Serve engine over
   a GPM learned from the XACML log, driven by a single caller in a closed
   loop (the next request is sent when the previous one returns).

   - hot: a Zipf stream (P ∝ 1/rank) over a few recurring contexts, so
     nearly every request is a decision-memo hit and the serve layer does
     almost all the work.
   - cold: every context is made distinct by an inert [req_seq(i)] fact,
     so the memo always misses (and evicts on every insert); the ground
     cache hits the frozen core and each option is delta-ground and
     delta-solved, so asp and asg dominate. *)

open Harness

let options = [ "permit"; "deny" ]

(* The monitoring oracle of the AMS environment: denying is always
   compliant, permitting only where the ground truth permits. *)
let compliant ~truth chosen =
  String.equal chosen "deny" || Policy.Decision.equal truth Policy.Decision.Permit

type kind = Hot | Cold

type sizes = {
  contexts : int;  (** hot: recurring contexts *)
  stream : int;  (** requests in one pass of the stream *)
  round : int;  (** requests per calibrated round *)
  setups : int;  (** set-ups per run; setup_s is their median *)
}

let sizes ~tiny = function
  | Hot ->
    if tiny then { contexts = 8; stream = 256; round = 64; setups = 2 }
    else { contexts = 24; stream = 4096; round = 1024; setups = 9 }
  | Cold ->
    if tiny then { contexts = 0; stream = 300; round = 30; setups = 2 }
    else { contexts = 0; stream = 2040; round = 255; setups = 9 }

type setup = {
  gpm : Asg.Gpm.t;
  engine : Serve.t;
  reqs : Serve.Request.t array;  (** the distinct requests *)
  truths : Policy.Decision.t array;  (** ground truth of each *)
  stream : int array;  (** indices into [reqs], in serving order *)
}

(* The GPM the engine serves: the XACML grammar plus the constraints the
   learner finds from the whole request space labelled by the ground truth
   — the same model for every seed, so seeds vary only the stream. *)
let learned_gpm () =
  let log =
    List.map
      (fun r -> (r, Workloads.Xacml_logs.ground_truth_decision r))
      (Workloads.Xacml_logs.request_space ())
  in
  let examples = Policy.Xacml.examples_of_log log in
  let space = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
  match
    Ilp.Asg_learning.learn ~gpm:(Workloads.Xacml_logs.gpm ()) ~space ~examples ()
  with
  | Some l -> l.Ilp.Asg_learning.gpm
  | None -> failwith "the XACML learning task has no solution"

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let req_seq ctx i =
  Asp.Program.with_facts ctx [ Asp.Atom.make "req_seq" [ Asp.Term.int i ] ]

(* Everything before the first timed request: learn the GPM, build the
   engine and the request stream, warm the caches. *)
let build kind ~seed (sz : sizes) : setup =
  let gpm = learned_gpm () in
  let engine = Serve.create gpm in
  let st = Random.State.make [| seed; 0x5e7e |] in
  let space = Array.of_list (Workloads.Xacml_logs.request_space ()) in
  shuffle st space;
  let make r ctx = (Serve.Request.make ~context:ctx ~options (), Workloads.Xacml_logs.ground_truth_decision r) in
  let pairs, stream =
    match kind with
    | Hot ->
      let pool = Array.sub space 0 sz.contexts in
      let w = Array.init sz.contexts (fun k -> 1.0 /. float_of_int (k + 1)) in
      let total = Array.fold_left ( +. ) 0.0 w in
      let zipf () =
        let x = Random.State.float st total in
        let rec pick k acc =
          let acc = acc +. w.(k) in
          if x < acc || k = sz.contexts - 1 then k else pick (k + 1) acc
        in
        pick 0 0.0
      in
      ( Array.map (fun r -> make r (Policy.Request.to_context r)) pool,
        Array.init sz.stream (fun _ -> zipf ()) )
    | Cold ->
      (* blocks of seeded shuffles of the whole request space, so every
         seed serves the same mix of contexts *)
      let block = Array.copy space in
      ( Array.init sz.stream (fun i ->
            if i mod Array.length block = 0 then shuffle st block;
            let r = block.(i mod Array.length block) in
            make r (req_seq (Policy.Request.to_context r) i)),
        Array.init sz.stream Fun.id )
  in
  let reqs = Array.map fst pairs in
  (match kind with
  | Hot -> Array.iter (fun r -> ignore (Serve.decide engine r)) reqs
  | Cold ->
    (* fill the memo with other distinct contexts, so that every timed
       insert evicts and the cores are frozen before timing starts *)
    let cap = (Serve.config engine).Serve.Config.caching.Serve.Config.decision_cache in
    for i = 0 to cap + 15 do
      let r = space.(i mod Array.length space) in
      ignore
        (Serve.decide engine
           (Serve.Request.make
              ~context:(req_seq (Policy.Request.to_context r) (-1 - i))
              ~options ()))
    done);
  { gpm; engine; reqs; truths = Array.map snd pairs; stream }

(* ---- the stage replays of the traced run ------------------------------- *)

(* One option's parse trees with the frozen core and prepared solver
   state of each tree's context-free program: the inputs the engine's
   delta path runs on. *)
type replay_tree = {
  tree : Grammar.Parse_tree.t;
  core : Asp.Grounder.Incremental.core;
  prepared : Asp.Solver.prepared;
}

let replay_trees gpm =
  List.map
    (fun opt ->
      ( opt,
        List.map
          (fun tree ->
            let core =
              Asp.Grounder.Incremental.freeze (Asg.Tree_program.program gpm tree)
            in
            {
              tree;
              core;
              prepared =
                Asp.Solver.prepare (Asp.Grounder.Incremental.core_ground core);
            })
          (Grammar.Earley.parses (Asg.Gpm.cfg gpm)
             (Asg.Membership.tokenize opt)) ))
    options

let context_atoms (ctx : Asp.Program.t) =
  List.filter_map
    (fun (r : Asp.Rule.t) ->
      match (r.Asp.Rule.head, r.Asp.Rule.body) with
      | Asp.Rule.Head a, [] -> Some a
      | _ -> None)
    (Asp.Program.rules ctx)

(* Per-stage accumulators of the traced phase, in calibrated ns. *)
type stages = {
  mutable fp : float;
  mutable cf : float;
  mutable dg : float;
  mutable ds : float;
  mutable dg_words : float;
  mutable ds_words : float;
  mutable rules : int;
  mutable repairs : int;
  mutable decide_words : float;
  mutable mismatches : int;
}

(* ---- the timed phases -------------------------------------------------- *)

type phase = {
  r : rounds;
  words : float;  (** minor words over the timed requests *)
  stats0 : Serve.stats;
  stats1 : Serve.stats;
}

type stop = { seconds : float; max_rounds : int option }

let keep_going stop ~t_start ~rounds =
  match stop.max_rounds with
  | Some n -> rounds < n
  | None -> float_of_int (now_ns () - t_start) /. 1e9 < stop.seconds

(* The uncached reference decision of each distinct request, computed on
   demand and outside the timed region. *)
let reference (s : setup) =
  let refs = Array.make (Array.length s.reqs) None in
  fun idx ->
    match refs.(idx) with
    | Some e -> e
    | None ->
      let e = Serve.decide_uncached s.gpm s.reqs.(idx) in
      refs.(idx) <- Some e;
      e

let dummy =
  { Serve.Decision.chosen = ""; valid_options = []; fallback_used = false; compliant = None }

let span_names =
  [ "serve.call.decide"; "serve.call.fingerprint"; "asg.call.context_facts";
    "asp.call.delta_with"; "asp.call.solve_delta" ]

(* Serve rounds of [round] requests from the stream, starting at stream
   position [pos]. With [replay] (the traced phase), each request also
   runs under its own trace ID inside a benchmark span, and after it
   returns the stage calls it made are replayed and timed one by one. *)
let run_phase (s : setup) ~reference ~round ~stop ~pos ?replay () =
  let r = new_rounds ~round in
  let lat = Array.make round 0.0 in
  let dec = Array.make round dummy in
  let ids = Array.make round 0 in
  let ok = Array.make round true in
  let n_stream = Array.length s.stream in
  let words = ref 0.0 in
  let stats0 = Serve.stats s.engine in
  let t_start = now_ns () in
  let n_rounds = ref 0 in
  let c0 = ref (calib_ns ()) in
  let rids = Array.make round "" in
  (* per-round raw stage times, calibrated when the round closes *)
  let rfp = ref 0.0 and rcf = ref 0.0 and rdg = ref 0.0 and rds = ref 0.0 in
  while keep_going stop ~t_start ~rounds:!n_rounds && not (full r) do
    if replay <> None then
      for i = 0 to round - 1 do
        rids.(i) <- Printf.sprintf "req-%d.%d" !n_rounds i
      done;
    settle_histograms span_names;
    let w0 = Gc.minor_words () in
    (match replay with
    | None ->
      for i = 0 to round - 1 do
        let idx = s.stream.(!pos) in
        pos := (!pos + 1) mod n_stream;
        ids.(i) <- idx;
        let req = s.reqs.(idx) in
        let t0 = now_ns () in
        (match Serve.decide s.engine req with
        | resp -> dec.(i) <- resp.Serve.Response.decision
        | exception _ -> ok.(i) <- false);
        lat.(i) <- float_of_int (now_ns () - t0)
      done;
      words := !words +. (Gc.minor_words () -. w0)
    | Some (trees, atoms, (st : stages)) ->
      for i = 0 to round - 1 do
        let idx = s.stream.(!pos) in
        pos := (!pos + 1) mod n_stream;
        ids.(i) <- idx;
        let req = s.reqs.(idx) in
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        (match
           Obs.Trace_context.with_id rids.(i) (fun () ->
               Obs.span "serve.call.decide" (fun () -> Serve.decide s.engine req))
         with
        | resp -> dec.(i) <- resp.Serve.Response.decision
        | exception _ -> ok.(i) <- false);
        lat.(i) <- float_of_int (now_ns () - t0);
        st.decide_words <- st.decide_words +. (Gc.minor_words () -. w0);
        Obs.Trace_context.with_id rids.(i) (fun () ->
            let t0 = now_ns () in
            let fp =
              Obs.span "serve.call.fingerprint" (fun () ->
                  Asp.Program.fingerprint req.Serve.Request.context)
            in
            ignore (Sys.opaque_identity fp);
            rfp := !rfp +. float_of_int (now_ns () - t0);
            (* a memo hit makes no stage calls; a miss delta-grounds and
               delta-solves every option, tree by tree, as the engine
               does *)
            if trees <> [] then begin
              let valid =
                List.filter
                  (fun (_, ts) ->
                    List.exists
                      (fun rt ->
                        let t0 = now_ns () in
                        let facts =
                          Obs.span "asg.call.context_facts" (fun () ->
                              Asg.Tree_program.context_facts rt.tree atoms.(idx))
                        in
                        let t1 = now_ns () in
                        rcf := !rcf +. float_of_int (t1 - t0);
                        let w0 = Gc.minor_words () in
                        let d =
                          Obs.span "asp.call.delta_with" (fun () ->
                              Asp.Grounder.Incremental.delta_with rt.core ~facts)
                        in
                        let t2 = now_ns () in
                        st.dg_words <- st.dg_words +. (Gc.minor_words () -. w0);
                        rdg := !rdg +. float_of_int (t2 - t1);
                        match d with
                        | None ->
                          st.repairs <- st.repairs + 1;
                          false
                        | Some d ->
                          st.rules <- st.rules + List.length d;
                          let w0 = Gc.minor_words () in
                          let t2 = now_ns () in
                          let sat =
                            Obs.span "asp.call.solve_delta" (fun () ->
                                Asp.Solver.has_answer_set_prepared rt.prepared
                                  ~delta:d)
                          in
                          rds := !rds +. float_of_int (now_ns () - t2);
                          st.ds_words <- st.ds_words +. (Gc.minor_words () -. w0);
                          sat)
                      ts)
                  trees
              in
              if ok.(i)
                 && not
                      (List.equal String.equal (List.map fst valid)
                         dec.(i).Serve.Decision.valid_options)
              then st.mismatches <- st.mismatches + 1
            end)
      done);
    let c1 = calib_ns () in
    let f = record_round r ~lat ~c0:!c0 ~c1 in
    (match replay with
    | Some (_, _, st) ->
      st.fp <- st.fp +. (!rfp *. f);
      st.cf <- st.cf +. (!rcf *. f);
      st.dg <- st.dg +. (!rdg *. f);
      st.ds <- st.ds +. (!rds *. f);
      rfp := 0.0;
      rcf := 0.0;
      rdg := 0.0;
      rds := 0.0
    | None -> ());
    incr n_rounds;
    for i = 0 to round - 1 do
      tally.attempted <- tally.attempted + 1;
      if not (ok.(i) && Serve.Decision.equal (reference ids.(i)) dec.(i)) then tally.failed <- tally.failed + 1;
      ok.(i) <- true
    done;
    c0 := calib_ns ()
  done;
  { r; words = !words; stats0; stats1 = Serve.stats s.engine }

(* ---- the workload ------------------------------------------------------ *)

let name_of = function Hot -> "hot" | Cold -> "cold"

let run kind ~seed ~seconds ~traced ~tiny =
  let sz = sizes ~tiny kind in
  let max_rounds = if tiny then Some 6 else None in
  (* set up [setups] times, each between calibration runs; the last
     set-up is the one measured *)
  let setups =
    List.init sz.setups (fun _ -> calibrated_once (fun () -> build kind ~seed sz))
  in
  let setup_s = median (List.map fst setups) in
  let s = snd (List.nth setups (sz.setups - 1)) in
  let reference = reference s in
  (* share of one pass of the stream decided compliantly; served decisions
     equal the reference ones, which every timed request checks *)
  let compliance =
    let c = ref 0 in
    Array.iter
      (fun idx ->
        if compliant ~truth:s.truths.(idx) (reference idx).Serve.Decision.chosen
        then incr c)
      s.stream;
    float_of_int !c /. float_of_int (Array.length s.stream)
  in
  let pos = ref 0 in
  let budget = if traced then seconds /. 2.0 else seconds in
  let main = run_phase s ~reference ~round:sz.round ~stop:{ seconds = budget; max_rounds } ~pos () in
  let r = main.r in
  let n = float_of_int (max 1 r.requests) in
  let req_per_s = med r r.rps in
  let latency_p50_us = med r r.p50_us in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "req_per_s" "1/s" req_per_s;
      m "latency_p50_us" "us" latency_p50_us;
      m "compliance" "ratio" compliance;
      m "minor_words_per_req" "words" (main.words /. n);
      m "peak_heap_mb" "MB" (peak_heap_mb ());
    ]
  in
  let error_rate = float_of_int tally.failed /. float_of_int (max 1 tally.attempted) in
  Printf.printf "workload %s (seed %d): %d requests in %d rounds\n" (name_of kind)
    seed r.requests r.n;
  List.iter pp_metric e2e;
  pp_metric (m "relearn_ms" "ms" 0.0);
  pp_metric (m "error_rate" "ratio" error_rate);
  if not traced then e2e
  else begin
    let trees = match kind with Cold -> replay_trees s.gpm | Hot -> [] in
    let atoms = Array.map (fun (q : Serve.Request.t) -> context_atoms q.Serve.Request.context) s.reqs in
    let st =
      {
        fp = 0.0; cf = 0.0; dg = 0.0; ds = 0.0; dg_words = 0.0; ds_words = 0.0;
        rules = 0; repairs = 0; decide_words = 0.0; mismatches = 0;
      }
    in
    Tracing.start ();
    let tr =
      run_phase s ~reference ~round:sz.round ~stop:{ seconds = budget; max_rounds } ~pos
        ~replay:(trees, atoms, st) ()
    in
    Tracing.stop ();
    if st.mismatches > 0 then
      fail_check
        (Printf.sprintf "%d stage replay(s) disagree with the engine's decision"
           st.mismatches);
    let t = tr.r in
    let nt = float_of_int (max 1 t.requests) in
    let per_req x = x /. nt /. 1e3 in
    let decide_mean_us = t.total_ns /. nt /. 1e3 in
    let stage_us = per_req (st.fp +. st.cf +. st.dg +. st.ds) in
    let unattributed = Float.max 0.0 (decide_mean_us -. stage_us) in
    let residual = Float.abs (stage_us +. unattributed -. decide_mean_us) /. decide_mean_us in
    let s0 = main.stats0 and s1 = tr.stats1 in
    let tier_rate (a : Serve.tier_stats) (b : Serve.tier_stats) =
      let h = b.Serve.hits - a.Serve.hits and mi = b.Serve.misses - a.Serve.misses in
      if h + mi = 0 then 0.0 else float_of_int h /. float_of_int (h + mi)
    in
    let layer =
      [
        m "serve.decide_us" "us" (med t t.mean_us);
        m "serve.decide_p99_us" "us" (med t t.p99_us);
        m "serve.decide_words" "words" (st.decide_words /. nt);
        m "serve.fingerprint_us" "us" (per_req st.fp);
        m "serve.unattributed_us" "us" unattributed;
        m "serve.memo_hit_rate" "ratio" (tier_rate s0.Serve.decisions s1.Serve.decisions);
        m "serve.ground_hit_rate" "ratio" (tier_rate s0.Serve.grounds s1.Serve.grounds);
        m "serve.evictions" "count"
          (float_of_int (s1.Serve.decisions.Serve.evictions - s0.Serve.decisions.Serve.evictions
                         + s1.Serve.grounds.Serve.evictions - s0.Serve.grounds.Serve.evictions));
        m "serve.collisions" "count"
          (float_of_int (s1.Serve.decisions.Serve.collisions - s0.Serve.decisions.Serve.collisions
                         + s1.Serve.grounds.Serve.collisions - s0.Serve.grounds.Serve.collisions));
        m "serve.delta_grounds" "count"
          (float_of_int (s1.Serve.delta.Serve.delta_grounds - s0.Serve.delta.Serve.delta_grounds));
        m "serve.delta_fallbacks" "count"
          (float_of_int (s1.Serve.delta.Serve.fallbacks - s0.Serve.delta.Serve.fallbacks));
        m "serve.core_freezes" "count"
          (float_of_int (s1.Serve.grounds.Serve.misses - s0.Serve.grounds.Serve.misses));
        m "asg.context_facts_us" "us" (per_req st.cf);
        m "asp.delta_ground_us" "us" (per_req st.dg);
        m "asp.delta_ground_words" "words" (st.dg_words /. nt);
        m "asp.delta_rules" "count" (float_of_int st.rules /. nt);
        m "asp.core_repairs" "count" (float_of_int st.repairs);
        m "asp.delta_solve_us" "us" (per_req st.ds);
        m "asp.delta_solve_words" "words" (st.ds_words /. nt);
        m "obs.trace_overhead_pct" "%" ((req_per_s /. med t t.rps -. 1.0) *. 100.0);
        m "host.calib_ms" "ms" (med r r.calib_ms);
        m "host.raw_req_per_s" "1/s" (med r r.raw_rps);
      ]
    in
    Printf.printf "traced: %d requests; stages + unattributed vs decide: %.2f%% apart (%s)\n"
      t.requests (residual *. 100.0)
      (if residual <= 0.10 then "reconciled" else "NOT reconciled");
    Printf.printf "unattributed share of decide: %.1f%%\n"
      (unattributed /. decide_mean_us *. 100.0);
    layer
  end
