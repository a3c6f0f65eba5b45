(* The traced run's span collector. While active it points the Obs clock
   at the nanosecond monotonic clock and registers an Obs sink that
   (a) folds every finished span into per-layer self time — a span's
   duration minus its children's, keyed by the span name's segment before
   the first dot — and (b) keeps the first [limit] spans in memory, to be
   written as JSONL (name, start, end, parent, request id) when the run
   ends. The benchmark opens its own spans around each timed public call;
   the library's spans nested inside them land in the same tree. *)

type rec_span = {
  name : string;
  start : float;
  dur : float;
  depth : int;
  trace : string;
}

let limit = 200_000
let kept : rec_span list ref = ref []
let n_kept = ref 0
let n_seen = ref 0
let self_by_layer : (string, float ref) Hashtbl.t = Hashtbl.create 16

(* child time accumulated per depth, reset when the parent finishes *)
let child_acc = Array.make 64 0.0

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let on_span (s : Obs.span) =
  let d = min s.Obs.sp_depth 62 in
  let self = s.Obs.sp_dur -. child_acc.(d + 1) in
  child_acc.(d + 1) <- 0.0;
  child_acc.(d) <- child_acc.(d) +. s.Obs.sp_dur;
  let layer = layer_of s.Obs.sp_name in
  (match Hashtbl.find_opt self_by_layer layer with
  | Some r -> r := !r +. self
  | None -> Hashtbl.add self_by_layer layer (ref self));
  incr n_seen;
  if !n_kept < limit then begin
    incr n_kept;
    kept :=
      {
        name = s.Obs.sp_name;
        start = s.Obs.sp_start;
        dur = s.Obs.sp_dur;
        depth = s.Obs.sp_depth;
        trace = Option.value ~default:"" (List.assoc_opt "trace" s.Obs.sp_attrs);
      }
      :: !kept
  end

let sink = { Obs.on_span }

let start () =
  Obs.set_clock (fun () -> float_of_int (Harness.now_ns ()) /. 1e9);
  Obs.register_sink sink

let stop () =
  Obs.unregister_sink sink;
  Obs.use_default_clock ()

(* Self time per layer in seconds, largest first. *)
let layer_self () =
  Hashtbl.fold (fun l r acc -> (l, !r) :: acc) self_by_layer []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

(* Write the kept spans in start order, each with the index of its parent
   (-1 for roots), reconstructed from nesting depth. *)
let write path =
  let spans =
    List.stable_sort (fun a b -> Float.compare a.start b.start) (List.rev !kept)
  in
  let oc = open_out path in
  let stack = ref [] in
  List.iteri
    (fun i s ->
      let rec pop = function
        | (_, d) :: rest when d >= s.depth -> pop rest
        | st -> st
      in
      stack := pop !stack;
      let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
      stack := (i, s.depth) :: !stack;
      Printf.fprintf oc
        "{\"id\": %d, \"name\": \"%s\", \"start_ns\": %.0f, \"end_ns\": %.0f, \
         \"parent\": %d, \"request\": \"%s\"}\n"
        i (Obs.Json.escape s.name) (s.start *. 1e9)
        ((s.start +. s.dur) *. 1e9)
        parent (Obs.Json.escape s.trace))
    spans;
  close_out oc
