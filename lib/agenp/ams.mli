(** The Autonomous Managed System: the composition of Figure 2's points
    into one closed request-decide-enforce-monitor-adapt loop. *)

type environment = {
  options : string list;
      (** decision strings in preference order; last is the fail-safe *)
  oracle : Asp.Program.t -> string -> bool;
      (** monitoring's ground truth: was this decision valid here? *)
  audit_rate : float;
      (** probability that monitoring audits all options, not only the
          chosen one *)
}

type t

val create :
  name:string ->
  seed:int ->
  spec:Prep.pbms_spec ->
  space:Ilp.Hypothesis_space.t ->
  ?padap_config:Padap.config ->
  environment ->
  t

val gpm : t -> Asg.Gpm.t

(** Route this member's decisions through a caching engine
    ([Serve.Engine e]). The PDP keeps the engine's model in sync with
    the learned GPM, so adaptations invalidate this member's decision
    memo automatically — and, with one engine per member, only
    this member's. *)
val attach_engine : t -> Serve.target -> unit

val engine : t -> Serve.target option

(** The PReP-refined initial model (before any learned hypothesis). *)
val base_gpm : t -> Asg.Gpm.t

val repository : t -> Repository.t
val pep : t -> Pep.t
val name : t -> string
val compliance_rate : t -> float
val relearn_count : t -> int

(** Feed one labelled observation into the PAdaP. *)
val learn_from : t -> context:Asp.Program.t -> string -> valid:bool -> unit

(** The full request loop: PIP merge, PDP decision, PEP enforcement with
    monitoring, example accumulation, adaptation. *)
val handle_request : t -> Asp.Program.t -> Pep.record

(** PReP policy generation for the current context. *)
val generate_policies : ?max_depth:int -> t -> string list

val relearn : t -> [ `Updated | `Unchanged | `Failed ]

(** Signal a context shift; the PAdaP relearns on the next request. *)
val signal_context_change : t -> unit

val hypothesis : t -> Ilp.Task.hypothesis
val examples : t -> Ilp.Example.t list
val install_hypothesis : t -> Ilp.Task.hypothesis -> unit
