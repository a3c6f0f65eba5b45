(* The adapting closed loop, [adapt]: Ams.handle_request over the XACML
   log with a Serve engine attached. The monitoring oracle's ground truth
   is inverted every [period] requests, so violations pile up and the
   PAdaP keeps relearning the GPM from its example window; each relearn
   bumps the GPM version, which invalidates the engine's memo and makes it
   freeze new cores.

   A run repeats one episode — a fresh AMS over the same seeded log — until
   its time is up. Every episode makes exactly the same decisions and
   relearns at the same requests, so per-episode figures compare like with
   like, and the reported values are medians over episodes. Each inversion
   period is one calibrated round. *)

open Harness

let options = [ "permit"; "deny" ]

type sizes = { requests : int; period : int }

let sizes ~tiny =
  if tiny then { requests = 120; period = 60 } else { requests = 300; period = 60 }

let flip = function
  | Policy.Decision.Permit -> Policy.Decision.Deny
  | Policy.Decision.Deny -> Policy.Decision.Permit
  | d -> d

type setup = {
  ams : Agenp.Ams.t;
  engine : Serve.t;
  space : Ilp.Hypothesis_space.t;
  stream : (Asp.Program.t * Policy.Decision.t) array;
  truth : Policy.Decision.t ref;  (** read by the oracle *)
}

let build ~seed (sz : sizes) : setup =
  let spec : Agenp.Prep.pbms_spec =
    {
      Agenp.Prep.grammar_text = Asg.Asg_parser.render (Workloads.Xacml_logs.gpm ());
      global_constraints = [];
    }
  in
  let space = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
  let truth = ref Policy.Decision.Permit in
  let env : Agenp.Ams.environment =
    {
      Agenp.Ams.options;
      oracle =
        (fun _ opt ->
          match opt with
          | "deny" -> true
          | "permit" -> Policy.Decision.equal !truth Policy.Decision.Permit
          | _ -> false);
      audit_rate = 1.0;
    }
  in
  (* relearns come from the context-change signal the benchmark sends at
     each inversion, never from the violation-rate trigger, so every seed
     relearns at the same requests over the same number of examples *)
  let padap_config =
    { (Agenp.Padap.default_config space) with Agenp.Padap.relearn_threshold = 2.0 }
  in
  let ams = Agenp.Ams.create ~name:"perfbench" ~seed ~spec ~space ~padap_config env in
  let engine = Serve.create (Agenp.Ams.gpm ams) in
  Agenp.Ams.attach_engine ams (Serve.Engine engine);
  (* each block of the stream is a seeded shuffle of the whole request
     space, so every seed sees the same mix of contexts *)
  let st = Random.State.make [| seed; 0xada9 |] in
  let block = Array.of_list (Workloads.Xacml_logs.request_space ()) in
  let stream =
    Array.init sz.requests (fun i ->
        if i mod Array.length block = 0 then Serving.shuffle st block;
        let r = block.(i mod Array.length block) in
        let d = Workloads.Xacml_logs.ground_truth_decision r in
        (Policy.Request.to_context r, if i / sz.period mod 2 = 1 then flip d else d))
  in
  { ams; engine; space; stream; truth }

(* ---- the traced run's replays ------------------------------------------ *)

type ilp_acc = {
  mutable learn : float;  (** calibrated ns, summed over relearns *)
  mutable witnesses : float;
  mutable kill_matrix : float;
  mutable freeze : float;
  mutable n_witnesses : int;
  mutable candidates : int;
  mutable nodes : int;
  mutable pruned : int;
  mutable kill_cells : int;
  mutable learn_words : float;
  mutable examples : int;
  mutable replays : int;
  mutable request_ns : float;  (** non-relearn requests, calibrated *)
  mutable serve_ns : float;  (** their engine latency, raw *)
  mutable request_raw_ns : float;
  mutable ordinary : int;
}

let new_acc () =
  {
    learn = 0.0; witnesses = 0.0; kill_matrix = 0.0; freeze = 0.0;
    n_witnesses = 0; candidates = 0; nodes = 0; pruned = 0; kill_cells = 0;
    learn_words = 0.0; examples = 0; replays = 0; request_ns = 0.0;
    serve_ns = 0.0; request_raw_ns = 0.0; ordinary = 0;
  }

let same_hypothesis (a : Ilp.Task.hypothesis) (b : Ilp.Task.hypothesis) =
  List.equal
    (fun (x : Ilp.Hypothesis_space.candidate) (y : Ilp.Hypothesis_space.candidate) ->
      x.Ilp.Hypothesis_space.prod_id = y.Ilp.Hypothesis_space.prod_id
      && Asg.Annotation.equal_rule x.Ilp.Hypothesis_space.rule y.Ilp.Hypothesis_space.rule)
    a b

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let x = f () in
  (float_of_int (now_ns () - t0), Gc.minor_words () -. w0, x)

(* Replay the relearn that request just triggered, stage by stage, on the
   task rebuilt from the AMS's base GPM and example window; then freeze
   and prepare every core of the new GPM, as the engine will. Raw ns go
   into [acc] scaled by [f], the calibration factor of the surrounding
   round (known only when it closes, so the caller passes the previous
   round's). *)
let replay_relearn (s : setup) (acc : ilp_acc) ~f =
  let examples = List.rev (Agenp.Ams.examples s.ams) in
  let task =
    Ilp.Task.make ~gpm:(Agenp.Ams.base_gpm s.ams) ~space:s.space ~examples
  in
  let t_learn, w_learn, outcome =
    timed (fun () -> Obs.span "ilp.call.learn" (fun () -> Ilp.Learner.learn task))
  in
  let t_wit, _, witnesses =
    timed (fun () ->
        Obs.span "ilp.call.witnesses" (fun () ->
            List.concat_map
              (Ilp.Learner.witnesses_of_example ~max_witnesses:64 task.Ilp.Task.gpm)
              examples))
  in
  let t_kill, _, kills =
    timed (fun () ->
        Obs.span "ilp.call.kills" (fun () ->
            List.fold_left
              (fun n c ->
                List.fold_left
                  (fun n w -> if Ilp.Learner.kills c w then n + 1 else n)
                  n witnesses)
              0 s.space))
  in
  let gpm = Agenp.Ams.gpm s.ams in
  let t_freeze, _, () =
    timed (fun () ->
        List.iter
          (fun opt ->
            List.iter
              (fun tree ->
                let core =
                  Obs.span "asp.call.freeze" (fun () ->
                      Asp.Grounder.Incremental.freeze
                        (Asg.Tree_program.program gpm tree))
                in
                ignore
                  (Obs.span "asp.call.prepare" (fun () ->
                       Asp.Solver.prepare (Asp.Grounder.Incremental.core_ground core))))
              (Grammar.Earley.parses (Asg.Gpm.cfg gpm) (Asg.Membership.tokenize opt)))
          options)
  in
  (match outcome with
  | None -> fail_check "replayed Learner.learn found no hypothesis"
  | Some o ->
    let st = o.Ilp.Learner.stats in
    if not (same_hypothesis o.Ilp.Learner.hypothesis (Agenp.Ams.hypothesis s.ams))
    then fail_check "replayed hypothesis differs from Ams.hypothesis";
    if List.for_all Ilp.Hypothesis_space.is_constraint_candidate s.space
       && kills <> st.Ilp.Learner.kill_cells
    then
      fail_check
        (Printf.sprintf "replayed kill count %d <> outcome.stats.kill_cells %d"
           kills st.Ilp.Learner.kill_cells);
    acc.n_witnesses <- acc.n_witnesses + st.Ilp.Learner.witnesses;
    acc.candidates <- acc.candidates + st.Ilp.Learner.candidates;
    acc.nodes <- acc.nodes + st.Ilp.Learner.nodes;
    acc.pruned <- acc.pruned + st.Ilp.Learner.pruned;
    acc.kill_cells <- acc.kill_cells + st.Ilp.Learner.kill_cells);
  acc.learn <- acc.learn +. (t_learn *. f);
  acc.witnesses <- acc.witnesses +. (t_wit *. f);
  acc.kill_matrix <- acc.kill_matrix +. (t_kill *. f);
  acc.freeze <- acc.freeze +. (t_freeze *. f);
  acc.learn_words <- acc.learn_words +. w_learn;
  acc.examples <- acc.examples + List.length examples;
  acc.replays <- acc.replays + 1

let span_names =
  [ "agenp.call.handle_request"; "ilp.call.learn"; "ilp.call.witnesses";
    "ilp.call.kills"; "asp.call.freeze"; "asp.call.prepare" ]

(* ---- one episode ------------------------------------------------------- *)

type episode = {
  setup_s : float;
  req_per_s : float;
  p50_us : float;  (** requests that did not relearn *)
  relearn_ms : float;  (** mean over the requests that relearned *)
  relearns : int;
  words_per_req : float;
  compliance : float;
  calib_ms : float;
  raw_req_per_s : float;
  core_freezes : int;
}

let episode ~seed (sz : sizes) ?trace () =
  (* start every episode from the same collected heap *)
  Gc.full_major ();
  let setup_s, s = calibrated_once (fun () -> build ~seed sz) in
  let n = sz.requests in
  let lat = Array.make n 0.0 in
  let relearned = Array.make n false in
  let cal = Array.make n 0.0 in
  let words = ref 0.0 in
  let checks = ref [] in
  let calibs = ref [] in
  let freezes0 = (Serve.stats s.engine).Serve.grounds.Serve.misses in
  let f_prev = ref 1.0 in
  settle_histograms span_names;
  let c0 = ref (calib3_ns ()) in
  let i = ref 0 in
  while !i < n do
    let first = !i in
    let last = min n (first + sz.period) - 1 in
    for k = first to last do
      let ctx, truth = s.stream.(k) in
      s.truth := truth;
      if (k + 1) mod sz.period = 0 then Agenp.Ams.signal_context_change s.ams;
      let gpm_before = Agenp.Ams.gpm s.ams in
      let relearns_before = Agenp.Ams.relearn_count s.ams in
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let record =
        match trace with
        | None -> Agenp.Ams.handle_request s.ams ctx
        | Some _ ->
          Obs.Trace_context.with_id (Printf.sprintf "req-%d" k) (fun () ->
              Obs.span "agenp.call.handle_request" (fun () ->
                  Agenp.Ams.handle_request s.ams ctx))
      in
      lat.(k) <- float_of_int (now_ns () - t0);
      words := !words +. (Gc.minor_words () -. w0);
      relearned.(k) <- Agenp.Ams.relearn_count s.ams > relearns_before;
      checks := (gpm_before, record) :: !checks;
      match trace with
      | Some acc when relearned.(k) -> replay_relearn s acc ~f:!f_prev
      | Some acc ->
        (match Serve.audit s.engine with
        | Some ring -> (
          match Serve.Audit.to_list ~last:1 ring with
          | [ a ] -> acc.serve_ns <- acc.serve_ns +. (a.Serve.Audit.latency *. 1e9)
          | _ -> ())
        | None -> ());
        acc.request_raw_ns <- acc.request_raw_ns +. lat.(k);
        acc.ordinary <- acc.ordinary + 1
      | None -> ()
    done;
    let c1 = calib3_ns () in
    let c = (!c0 +. c1) /. 2.0 in
    let f = calib_ref_ns /. c in
    calibs := (c /. 1e6) :: !calibs;
    for k = first to last do
      cal.(k) <- lat.(k) *. f
    done;
    (match trace with
    | Some acc ->
      for k = first to last do
        if not relearned.(k) then acc.request_ns <- acc.request_ns +. cal.(k)
      done
    | None -> ());
    f_prev := f;
    c0 := c1;
    i := last + 1
  done;
  (* decisions checked outside the timed region: each against the
     uncached decision of the GPM in force before its request *)
  List.iter
    (fun (gpm, (record : Agenp.Pep.record)) ->
      tally.attempted <- tally.attempted + 1;
      let expected =
        Serve.decide_uncached gpm
          (Serve.Request.make ~context:(Agenp.Pep.context record) ~options ())
      in
      let got = { record.Agenp.Pep.decision with Serve.Decision.compliant = None } in
      if not (Serve.Decision.equal expected got) then tally.failed <- tally.failed + 1)
    !checks;
  let ordinary = ref [] and relearn = ref [] in
  Array.iteri
    (fun k t -> if relearned.(k) then relearn := t :: !relearn else ordinary := t :: !ordinary)
    cal;
  let total = Array.fold_left ( +. ) 0.0 cal in
  let raw_total = Array.fold_left ( +. ) 0.0 lat in
  let ord = Array.of_list !ordinary in
  {
    setup_s;
    req_per_s = float_of_int n *. 1e9 /. total;
    p50_us = quantile ord 0.5 /. 1e3;
    relearn_ms = mean !relearn /. 1e6;
    relearns = Agenp.Ams.relearn_count s.ams;
    words_per_req = !words /. float_of_int n;
    compliance = Agenp.Ams.compliance_rate s.ams;
    calib_ms = median !calibs;
    raw_req_per_s = float_of_int n *. 1e9 /. raw_total;
    core_freezes = (Serve.stats s.engine).Serve.grounds.Serve.misses - freezes0;
  }

(* ---- the workload ------------------------------------------------------ *)

let episodes ~seed sz ~seconds ~max_episodes ?trace () =
  let t_start = now_ns () in
  let rec go acc k =
    let more =
      match max_episodes with
      | Some m -> k < m
      | None -> k < 2 || float_of_int (now_ns () - t_start) /. 1e9 < seconds
    in
    if more then go (episode ~seed sz ?trace () :: acc) (k + 1) else List.rev acc
  in
  go [] 0

let run ~seed ~seconds ~traced ~tiny =
  let sz = sizes ~tiny in
  let max_episodes = if tiny then Some 2 else None in
  let budget = if traced then seconds /. 2.0 else seconds in
  (* set-up is cheap next to an episode, so time extra set-ups for a
     steadier setup_s *)
  let extra_setups =
    List.init (if tiny then 2 else 15) (fun _ -> fst (calibrated_once (fun () -> build ~seed sz)))
  in
  (* one untimed episode first, so every span histogram and lazy table
     the loop touches exists before timing starts *)
  ignore (episode ~seed sz ());
  let eps = episodes ~seed sz ~seconds:budget ~max_episodes () in
  let med f = median (List.map f eps) in
  let first = List.hd eps in
  if List.exists (fun e -> e.relearns <> first.relearns || e.compliance <> first.compliance) eps
  then fail_check "episodes of one seed diverged";
  let relearn_ms = med (fun e -> e.relearn_ms) in
  let e2e =
    [
      m "setup_s" "s" (median (extra_setups @ List.map (fun e -> e.setup_s) eps));
      m "req_per_s" "1/s" (med (fun e -> e.req_per_s));
      m "latency_p50_us" "us" (med (fun e -> e.p50_us));
      m "compliance" "ratio" first.compliance;
      m "minor_words_per_req" "words" (med (fun e -> e.words_per_req));
      m "peak_heap_mb" "MB" (peak_heap_mb ());
    ]
  in
  Printf.printf "workload adapt (seed %d): %d episode(s) of %d requests, %d relearn(s) each\n"
    seed (List.length eps) sz.requests first.relearns;
  List.iter pp_metric e2e;
  pp_metric (m "relearn_ms" "ms" relearn_ms);
  pp_metric
    (m "error_rate" "ratio" (float_of_int tally.failed /. float_of_int (max 1 tally.attempted)));
  if not traced then e2e
  else begin
    let acc = new_acc () in
    Tracing.start ();
    let teps = episodes ~seed sz ~seconds:budget ~max_episodes ~trace:acc () in
    Tracing.stop ();
    let tmed f = median (List.map f teps) in
    let nr = float_of_int (max 1 acc.replays) in
    let per_relearn x = x /. nr in
    let traced_relearn_ms = tmed (fun e -> e.relearn_ms) in
    let learn_ms = per_relearn acc.learn /. 1e6 in
    let wit_ms = per_relearn acc.witnesses /. 1e6 in
    let kill_ms = per_relearn acc.kill_matrix /. 1e6 in
    let ordinary = float_of_int (max 1 acc.ordinary) in
    let layer =
      [
        m "serve.decide_us" "us" (acc.serve_ns /. ordinary /. 1e3);
        m "serve.core_freezes" "count" (float_of_int first.core_freezes);
        m "asp.freeze_ms" "ms" (per_relearn acc.freeze /. 1e6);
        m "agenp.request_us" "us" (acc.request_ns /. ordinary /. 1e3);
        m "agenp.serve_share" "ratio" (acc.serve_ns /. Float.max 1.0 acc.request_raw_ns);
        m "agenp.relearns" "count" (float_of_int first.relearns);
        m "agenp.examples_per_relearn" "count" (float_of_int acc.examples /. nr);
        m "agenp.relearn_ms" "ms" traced_relearn_ms;
        m "ilp.learn_ms" "ms" learn_ms;
        m "ilp.witnesses_ms" "ms" wit_ms;
        m "ilp.kill_matrix_ms" "ms" kill_ms;
        m "ilp.search_ms" "ms" (Float.max 0.0 (learn_ms -. wit_ms -. kill_ms));
        m "ilp.witnesses" "count" (float_of_int acc.n_witnesses /. nr);
        m "ilp.candidates" "count" (float_of_int acc.candidates /. nr);
        m "ilp.nodes" "count" (float_of_int acc.nodes /. nr);
        m "ilp.pruned" "count" (float_of_int acc.pruned /. nr);
        m "ilp.kill_cells" "count" (float_of_int acc.kill_cells /. nr);
        m "ilp.learn_words" "words" (acc.learn_words /. nr);
        m "obs.trace_overhead_pct" "%" ((traced_relearn_ms /. relearn_ms -. 1.0) *. 100.0);
        m "host.calib_ms" "ms" (med (fun e -> e.calib_ms));
        m "host.raw_req_per_s" "1/s" (med (fun e -> e.raw_req_per_s));
      ]
    in
    let residual = Float.abs (learn_ms -. traced_relearn_ms) /. traced_relearn_ms in
    Printf.printf
      "traced: %d relearn replay(s); ilp.learn %.2f ms vs relearn request %.2f ms: \
       unattributed %.1f%% (%s)\n"
      acc.replays learn_ms traced_relearn_ms
      (Float.max 0.0 (traced_relearn_ms -. learn_ms) /. traced_relearn_ms *. 100.0)
      (if residual <= 0.10 then "reconciled" else "NOT reconciled");
    layer
  end
