(** The policy-decision serving layer: a request/response engine over a
    generative policy model ({!Asg.Gpm}) that makes repeated decisions
    fast with two cache tiers. Multi-tenant serving is one engine per
    tenant: engines share no mutable state, so one tenant's model swap
    never touches another's caches.

    {2 Decision semantics}

    A request carries a context and candidate options in preference
    order. The decision is the first option admitted by the model in
    that context ([s ∈ L(G(C))]); when the model admits none, the last
    option is returned as a flagged fail-safe. Cached and uncached paths
    return bit-identical decisions — caches only change latency, never
    outcomes (pinned by the differential property tests).

    {2 Cache tiers}

    - {b Ground-program (core) cache}: for a fact-only context, the
      context-free core program a parse tree induces is frozen once
      ({!Asp.Grounder.Incremental.freeze}) with its prepared solver
      state ({!Asp.Solver.prepare}), keyed by {!Asp.Program.fingerprint}
      (hits confirmed with {!Asp.Program.equal}). Each request's
      context facts are delta-grounded
      ({!Asp.Grounder.Incremental.delta_with}) and delta-solved
      ({!Asp.Solver.has_answer_set_prepared}) against it, so distinct
      contexts over one model share cores. A context that touches a
      latent negative literal or choice head of the core would need core
      repair and is decided on the uncached full path; a context carrying
      proper rules freezes the full context-baked program (both counted
      in [delta.fallbacks]). A fingerprint collision replaces the resident
      entry and is counted in the tier's [collisions], apart from
      capacity evictions.
    - {b Decision memo}: whole decisions keyed by (GPM version, context
      fingerprint, options). {!Asg.Gpm.version} is bumped by every
      [with_context]/[with_hypothesis]/adaptation, so stale entries are
      unreachable by construction; {!set_gpm} additionally clears the
      memo explicitly when the model changes, and {!invalidate} drops
      both tiers.

    Both tiers use LRU eviction ({!Lru}) and report
    hit/miss/eviction/collision counters plus latency histograms
    through [lib/obs] (spans [serve.decide] / [serve.batch], counters
    [serve.*], rolling window [serve.decide]).

    {2 The ops plane}

    {!decide} runs under an [Obs.Trace_context] scope, so its span, the
    spans and log lines beneath it, the audit record and
    {!Response.t.trace_id} carry one ID; {!Batch.run} gives each request
    a child ID that survives the [lib/par] fan-out. Decisions are
    recorded in a bounded {!Audit} ring, latency feeds a rolling
    [serve.decide] window and an optional {!Obs.Slo}, and {!openmetrics}
    (servable over TCP via {!Metrics}) exposes it all in the
    OpenMetrics text format. *)

module Lru = Lru
module Audit = Audit
module Metrics = Metrics

exception No_options
(** Raised by {!decide}/{!decide_uncached} on a request with an empty
    options list — there is nothing to decide and no fail-safe to fall
    back to. *)

module Request : sig
  type t = {
    context : Asp.Program.t;  (** the facts/rules the decision is made in *)
    options : string list;
        (** candidate decisions in preference order; last is the
            fail-safe *)
  }

  val make : context:Asp.Program.t -> options:string list -> unit -> t
end

module Decision : sig
  (** The single decision payload of the serving API, shared by the
      PDP and PEP surfaces. *)
  type t = {
    chosen : string;
    valid_options : string list;
        (** every option the model admits, in preference order *)
    fallback_used : bool;  (** the model admitted nothing *)
    compliant : bool option;
        (** monitoring verdict, filled in at enforcement time; [None]
            until the PEP has seen the decision *)
  }

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** Where a response came from. *)
type provenance =
  | Cold  (** full membership evaluation, no cache helped *)
  | Ground_hit  (** decision recomputed, but on cached ground programs *)
  | Memo_hit  (** whole decision served from the memo *)

val provenance_to_string : provenance -> string

module Response : sig
  type t = {
    decision : Decision.t;
    trace_id : string;
        (** the request's trace ID — the one on its spans, log lines,
            and audit record *)
    provenance : provenance;
    latency : float;  (** seconds spent serving this request *)
    gpm_version : int;  (** model version that made the decision *)
  }
end

module Config : sig
  (** Engine configuration, grouped by concern. *)

  type caching = {
    decision_cache : int;  (** decision-memo capacity (entries) *)
    ground_cache : int;  (** ground-program cache capacity (entries) *)
  }

  type audit = {
    capacity : int;
        (** audit-ring capacity (records); [0] disables the trail *)
  }

  type slo = {
    target : float option;
        (** latency SLO target in seconds; [None] tracks no SLO *)
    objective : float;  (** fraction that must meet the target *)
    window : float;  (** SLO rolling window, seconds *)
  }

  type t = { caching : caching; audit : audit; slo : slo }

  (** 256 decisions, 512 ground programs, 1024 audit records, no SLO
      (objective 0.99 over 60 s once a target is set). *)
  val default : t
end

(** Per-tier cache statistics of one engine. *)
type tier_stats = {
  hits : int;
  misses : int;
  evictions : int;  (** entries pushed out by capacity pressure *)
  collisions : int;
      (** fingerprint collisions: a resident key whose stored program
          was not structurally equal to the probe — the resident is
          replaced, which is neither a hit nor a capacity eviction *)
  entries : int;
  cap : int;
}

(** Incremental-grounding statistics: how much serving work ran as
    delta-grounding over a cached core rather than full regrounds. *)
type delta_stats = {
  delta_grounds : int;  (** delta grounds performed (core reused) *)
  delta_facts : int;  (** context facts delta-grounded, instantiated *)
  delta_rules : int;  (** ground rules the deltas added *)
  fallbacks : int;  (** rule-bearing or core-repair contexts, full path *)
}

type stats = {
  decisions : tier_stats;
  grounds : tier_stats;
  delta : delta_stats;
}

(** [hits / (hits + misses)]; 0 before any lookup. *)
val hit_rate : tier_stats -> float

val pp_stats : Format.formatter -> stats -> unit

type t

(** A fresh engine serving [gpm]. *)
val create : ?config:Config.t -> Asg.Gpm.t -> t

val gpm : t -> Asg.Gpm.t
val config : t -> Config.t

(** Swap the served model (e.g. after the PAdaP adapts). A version
    change clears the decision memo — the explicit invalidation backing
    the version-keyed one — and keeps the ground cache, whose
    fingerprint keys are model-independent. *)
val set_gpm : t -> Asg.Gpm.t -> unit

(** Drop both cache tiers (statistics survive). *)
val invalidate : t -> unit

(** Serve one request through the caches. Thread-safe: the engine may be
    shared across pool domains (cache state affects only speed, never
    the decision). @raise No_options on an empty options list. *)
val decide : t -> Request.t -> Response.t

(** The cache-free reference path: evaluates membership directly through
    {!Asg.Membership}. The differential oracle for the cached engine.
    @raise No_options on an empty options list. *)
val decide_uncached : Asg.Gpm.t -> Request.t -> Decision.t

val stats : t -> stats

(** The engine's decision audit ring, unless disabled by
    [audit.capacity = 0]. *)
val audit : t -> Audit.t option

(** The engine's SLO handle, when [slo.target] is configured. The
    handle is the [Obs.Slo] registered as ["serve.decide"], so it also
    appears in [Obs.report]. *)
val slo : t -> Obs.Slo.t option

(** One JSON object (schema [serve-stats/4]):
    [{"schema", "gpm_version", "requests", "decision_cache": tier,
    "ground_cache": tier, "delta": {"grounds", "facts", "rules_added",
    "fallbacks"}, "audit": {"capacity", "retained", "total"} or null,
    "health": {"signals": [{"signal", "observations", "positives",
    "rate", "overall_rate", "alarms"}], "events"}}]
    with [tier = {"hits", "misses", "evictions", "collisions",
    "entries", "capacity", "hit_rate"}]. The health section reports
    every {!Obs.Health} signal with observations (process-wide — the
    policy-health plane is global, not per-engine) plus the total
    health-event count. The machine-readable face of {!pp_stats}. *)
val stats_to_json : t -> string

(** The OpenMetrics exposition for this engine:
    {!Obs.Openmetrics.render} extended with per-tier gauges
    ([agenp_serve_cache_entries]/[_capacity]/[_hit_rate]/
    [_collisions], labeled [tier="decision"|"ground"]). This is what a
    {!Metrics} server should render. *)
val openmetrics : t -> string

module Batch : sig
  (** Fan a batch across [pool] (default {!Par.Config.pool}) and return
      responses in input order. Decisions are deterministic at every
      pool size — each request is evaluated in isolation and caches
      never change outcomes; provenance and latency vary with
      scheduling.

      The batch runs under one trace scope; every request is assigned
      its own child trace ID (so IDs are unique across the batch and
      chain to any ambient trace) and carries it to whichever pool
      domain serves it. *)
  val run : ?pool:Par.t -> t -> Request.t list -> Response.t list
end

(** Where a PDP routes its decisions: one engine. [Ams.attach_engine]
    takes this; a coalition gives each member its own engine. *)
type target = Engine of t
