(** The Policy Enforcement Point: carries out decisions and records the
    monitoring stream the PAdaP learns from. *)

type record = {
  tick : int;
  request : Serve.Request.t;  (** the request the decision answered *)
  decision : Serve.Decision.t;
      (** [compliant] is [Some verdict] for every enforced record *)
}

type t

val create : unit -> t

(** Enforce [decision] for [request]; [verdict] is the monitoring
    verdict, stored into the decision's [compliant] field. Every
    enforcement feeds the [pep.noncompliance] {!Obs.Health} signal —
    pass [gpm_version] ({!Asg.Gpm.version} of the deciding model) to
    attribute it per model version. *)
val enforce :
  ?gpm_version:int ->
  t ->
  request:Serve.Request.t ->
  decision:Serve.Decision.t ->
  verdict:bool ->
  record

(** The stored monitoring verdict ([false] only for records enforced
    non-compliant). *)
val compliant : record -> bool

val context : record -> Asp.Program.t
val log : t -> record list
val tick : t -> int
val compliance_rate : t -> float
