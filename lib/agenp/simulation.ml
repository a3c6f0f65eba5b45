(** A discrete-time coalition simulation: several AMSs receive request
    streams, run their closed loops, and periodically gossip through the
    shared policy repository. This productizes the experiment drivers so
    coalition studies (scaling, Byzantine members, sharing cadence) are
    one function call. *)

type config = {
  ticks : int;  (** simulation length *)
  requests_per_tick : int;  (** requests each member handles per tick *)
  gossip_every : int option;  (** gossip cadence in ticks; [None] = never *)
  gate : Coalition.gate;  (** adoption gate used at gossip rounds *)
}

let default_config =
  { ticks = 10; requests_per_tick = 4; gossip_every = Some 5; gate = `Pcp }

type tick_stats = {
  tick : int;
  compliance : float;  (** mean compliance over this tick's requests *)
  adaptations : int;  (** cumulative adaptations across members *)
  adopted : int;  (** rules adopted at this tick's gossip (0 otherwise) *)
}

type result = {
  timeline : tick_stats list;
  coalition : Coalition.t;
}

(** Run the simulation. [request_stream member_name tick index] supplies
    each request context — deterministic streams give reproducible runs.
    With [serve_config], each member decides through its own engine of
    that configuration — decisions are identical either way (engines
    only change latency), and one member's adaptation invalidates only
    its own engine. *)
let run ?(serve_config : Serve.Config.t option) (config : config)
    (members : Ams.t list)
    ~(request_stream : string -> int -> int -> Asp.Program.t) : result =
  Option.iter
    (fun sc ->
      List.iter
        (fun m ->
          Ams.attach_engine m
            (Serve.Engine (Serve.create ~config:sc (Ams.gpm m))))
        members)
    serve_config;
  let coalition = Coalition.create () in
  List.iter (Coalition.add_member coalition) members;
  let timeline = ref [] in
  for tick = 1 to config.ticks do
    let compliant = ref 0 and total = ref 0 in
    List.iter
      (fun ams ->
        for i = 0 to config.requests_per_tick - 1 do
          let context = request_stream (Ams.name ams) tick i in
          let record = Ams.handle_request ams context in
          incr total;
          if Pep.compliant record then incr compliant
        done)
      members;
    let adopted =
      match config.gossip_every with
      | Some k when tick mod k = 0 ->
        Coalition.gossip_round ~gate:config.gate coalition
      | Some _ | None -> 0
    in
    let adaptations =
      List.fold_left (fun acc m -> acc + Ams.relearn_count m) 0 members
    in
    timeline :=
      {
        tick;
        compliance =
          (if !total = 0 then 1.0
           else float_of_int !compliant /. float_of_int !total);
        adaptations;
        adopted;
      }
      :: !timeline
  done;
  { timeline = List.rev !timeline; coalition }

(** Run several independent scenarios, one per pool slot. Each thunk
    builds its whole scenario (members are stateful, so they must be
    constructed inside the worker that runs them) and the results come
    back in input order — a pool of size 1 degenerates to [List.map]. *)
let run_many ?pool ?serve_config
    (scenarios :
      (unit -> config * Ams.t list * (string -> int -> int -> Asp.Program.t))
      list) : result list =
  let pool = match pool with Some p -> p | None -> Par.Config.pool () in
  Par.map_list pool
    (fun setup ->
      let config, members, request_stream = setup () in
      run ?serve_config config members ~request_stream)
    scenarios

(** Mean compliance over the last [n] ticks of a result. *)
let recent_compliance (r : result) (n : int) : float =
  let recent = List.filteri (fun i _ -> i >= List.length r.timeline - n) r.timeline in
  match recent with
  | [] -> 1.0
  | _ ->
    List.fold_left (fun acc t -> acc +. t.compliance) 0.0 recent
    /. float_of_int (List.length recent)

let pp_tick ppf t =
  Fmt.pf ppf "tick %3d  compliance %.2f  adaptations %d  adopted %d" t.tick
    t.compliance t.adaptations t.adopted
