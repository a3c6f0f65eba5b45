(** The Policy Decision Point: the first preference-ordered option valid
    in the context; the last option as a flagged fail-safe. *)

exception No_options
(** Raised on an empty options list (alias of {!Serve.No_options}) —
    there is nothing to decide and no fail-safe to fall back to. *)

(** Decide; with [engine] the decision is served through that caching
    {!Serve.t} engine (whose model is updated to [gpm] first). Without
    one the cache-free reference path decides. Both paths return
    identical decisions.
    @raise No_options when [options] is empty. *)
val decide :
  ?engine:Serve.target ->
  Asg.Gpm.t ->
  context:Asp.Program.t ->
  options:string list ->
  Serve.Decision.t
