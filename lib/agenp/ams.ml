(** The Autonomous Managed System: the composition of every point in
    Figure 2 into one closed loop. A request arrives with a local
    context; the PIP merges external facts; the PDP decides using the
    current learned GPM; the PEP enforces and monitoring compares the
    outcome with the environment; the PAdaP turns observations into
    examples and relearns when violations accumulate; the PReP
    regenerates the concrete policy set into the repository. *)

let log_src = Logs.Src.create "agenp.ams" ~doc:"AMS closed-loop events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type environment = {
  options : string list;
      (** decision strings in preference order; last is the fail-safe *)
  oracle : Asp.Program.t -> string -> bool;
      (** monitoring's ground truth: was this decision valid here? *)
  audit_rate : float;
      (** probability that monitoring audits {e all} options, not just the
          chosen one (models periodic human review) *)
}

type t = {
  name : string;
  env : environment;
  padap : Padap.t;
  pep : Pep.t;
  pip : Pip.t;
  context_repo : Context_repo.t;
  repository : Repository.t;
  rng : Random.State.t;
  mutable serve_engine : Serve.target option;
      (** when attached, the PDP routes decisions through this
          member's own caching engine *)
}

let create ~name ~seed ~(spec : Prep.pbms_spec) ~(space : Ilp.Hypothesis_space.t)
    ?(padap_config : Padap.config option) (env : environment) : t =
  let gpm0 = Prep.refine spec in
  let config =
    Option.value padap_config ~default:(Padap.default_config space)
  in
  {
    name;
    env;
    padap = Padap.create config gpm0;
    pep = Pep.create ();
    pip = Pip.create ();
    context_repo = Context_repo.create ();
    repository = Repository.create ();
    rng = Random.State.make [| seed |];
    serve_engine = None;
  }

let gpm t = Padap.gpm t.padap
let attach_engine t engine = t.serve_engine <- Some engine
let engine t = t.serve_engine
let base_gpm t = t.padap.Padap.gpm0
let repository t = t.repository
let pep t = t.pep
let name t = t.name
let compliance_rate t = Pep.compliance_rate t.pep
let relearn_count t = Padap.relearn_count t.padap

(** Feed one labelled observation into the PAdaP. *)
let learn_from t ~context option_ ~valid =
  let e =
    if valid then
      Ilp.Example.positive ?weight:t.padap.Padap.config.Padap.example_weight
        ~context option_
    else
      Ilp.Example.negative ?weight:t.padap.Padap.config.Padap.example_weight
        ~context option_
  in
  Padap.add_example t.padap e

(** The full request loop. Returns the enforcement record. *)
let handle_request (t : t) (local_context : Asp.Program.t) : Pep.record =
  Obs.span "agenp.ams.request" @@ fun () ->
  (* PIP: merge external conditions into the context *)
  let external_facts = Pip.poll_all t.pip in
  let context = Asp.Program.append local_context external_facts in
  Context_repo.update t.context_repo context;
  (* PDP: decide with the current learned model *)
  let request = Serve.Request.make ~context ~options:t.env.options () in
  let decision =
    Pdp.decide ?engine:t.serve_engine (gpm t) ~context
      ~options:t.env.options
  in
  (* PEP + monitoring: enforce, compare with ground truth *)
  let verdict = t.env.oracle context decision.Serve.Decision.chosen in
  let record =
    Pep.enforce ~gpm_version:(Asg.Gpm.version (gpm t)) t.pep ~request
      ~decision ~verdict
  in
  (* monitoring feedback: the chosen option's validity is observed *)
  learn_from t ~context decision.Serve.Decision.chosen ~valid:verdict;
  (* periodic audit: label every option *)
  if Random.State.float t.rng 1.0 < t.env.audit_rate then
    List.iter
      (fun opt ->
        if opt <> decision.Serve.Decision.chosen then
          learn_from t ~context opt ~valid:(t.env.oracle context opt))
      t.env.options;
  Padap.record_violation t.padap (not verdict);
  (* PAdaP: adapt when violations accumulate *)
  (match Padap.maybe_adapt t.padap with
  | `Updated ->
    Log.info (fun m ->
        m "%s: adapted policy model (%d rules, %d examples)" t.name
          (List.length (Padap.hypothesis t.padap))
          (List.length (Padap.examples t.padap)));
    ignore (Repository.store_representation t.repository (gpm t))
  | `Failed ->
    Log.warn (fun m -> m "%s: adaptation failed (task unsatisfiable)" t.name)
  | `Unchanged | `Not_triggered -> ());
  if not verdict then
    Log.debug (fun m ->
        m "%s: non-compliant decision %s at tick %d" t.name
          decision.Serve.Decision.chosen record.Pep.tick);
  record

(** PReP policy generation for the current context. *)
let generate_policies ?max_depth (t : t) : string list =
  let context = Context_repo.current t.context_repo in
  let _, policies =
    Prep.generate_policies ?max_depth (gpm t) ~context t.repository
  in
  policies

(** Force relearning now (e.g. after adopting shared knowledge). *)
let relearn t = Padap.relearn t.padap

(** Signal that the operating context has shifted; the PAdaP will relearn
    on the next request regardless of the violation rate. *)
let signal_context_change t = Padap.signal_context_change t.padap

let hypothesis t = Padap.hypothesis t.padap
let examples t = Padap.examples t.padap
let install_hypothesis t h = Padap.install t.padap h
