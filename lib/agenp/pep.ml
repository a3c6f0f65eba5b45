(** The Policy Enforcement Point: carries out PDP decisions on the managed
    resources and records what happened, producing the monitoring stream
    the PAdaP learns from. The managed resource is abstracted as the
    [verdict] of an enforcement: whether the action succeeded / complied.

    A record stores the full request alongside the decision; the verdict
    lives inside the decision's [compliant] field (set here), so the
    record carries exactly one canonical payload. *)

type record = {
  tick : int;
  request : Serve.Request.t;
  decision : Serve.Decision.t;
      (** [compliant] is [Some verdict] for every enforced record *)
}

type t = {
  mutable log : record list;  (** newest first *)
  mutable tick : int;
}

let create () = { log = []; tick = 0 }

let c_noncompliant = Obs.Counter.make "agenp.pep.noncompliant"
let h_noncompliance = Obs.Health.make "pep.noncompliance"

(** Enforce a decision; [verdict] is the environment's compliance check
    (ground truth oracle in simulations, human/monitoring in the field).
    [gpm_version] attributes the observation to the model that made the
    decision, feeding the per-version [pep.noncompliance] health
    signal. *)
let enforce ?gpm_version (t : t) ~(request : Serve.Request.t)
    ~(decision : Serve.Decision.t) ~(verdict : bool) : record =
  Obs.span "agenp.pep.enforce" @@ fun () ->
  t.tick <- t.tick + 1;
  let decision = { decision with Serve.Decision.compliant = Some verdict } in
  let r = { tick = t.tick; request; decision } in
  t.log <- r :: t.log;
  Obs.Health.observe ?version:gpm_version h_noncompliance (not verdict);
  if not verdict then Obs.Counter.incr c_noncompliant;
  if not verdict then
    Obs.Log.info "pep recorded a non-compliant enforcement"
      ~attrs:
        [
          ("tick", string_of_int r.tick);
          ("chosen", r.decision.Serve.Decision.chosen);
        ];
  r

let compliant (r : record) =
  match r.decision.Serve.Decision.compliant with Some c -> c | None -> false

let context (r : record) = r.request.Serve.Request.context
let log t = t.log
let tick t = t.tick

let compliance_rate t =
  match t.log with
  | [] -> 1.0
  | log ->
    float_of_int (List.length (List.filter compliant log))
    /. float_of_int (List.length log)
