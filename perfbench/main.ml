(* perfbench: the AGENP end-to-end benchmark.

     main.exe --workload hot|cold|adapt --seed N --seconds S --trace 0|1
              [--tiny]

   Runs one workload in this process: one caller, closed loop, Par degree
   1, no metrics-server thread. With --trace 0 it prints the end-to-end
   metrics; with --trace 1 it spends half the time untraced and half
   traced, and prints the per-layer metrics, the per-layer self time of
   the trace, and writes the trace's spans to perfbench/_out.
   --tiny runs a fixed, small amount of work instead of S seconds (the
   determinism test uses it). The last line of standard output is the JSON
   result. *)

open Harness

(* Every per-layer metric, in print order. A workload that makes no call
   of a metric's kind reports 0 for it. *)
let per_layer_units =
  [
    ("serve.decide_us", "us"); ("serve.decide_p99_us", "us");
    ("serve.decide_words", "words"); ("serve.fingerprint_us", "us");
    ("serve.unattributed_us", "us"); ("serve.memo_hit_rate", "ratio");
    ("serve.ground_hit_rate", "ratio"); ("serve.evictions", "count");
    ("serve.collisions", "count"); ("serve.delta_grounds", "count");
    ("serve.delta_fallbacks", "count"); ("serve.core_freezes", "count");
    ("asg.context_facts_us", "us"); ("asp.delta_ground_us", "us");
    ("asp.delta_ground_words", "words"); ("asp.delta_rules", "count");
    ("asp.core_repairs", "count"); ("asp.delta_solve_us", "us");
    ("asp.delta_solve_words", "words"); ("asp.freeze_ms", "ms");
    ("agenp.request_us", "us"); ("agenp.serve_share", "ratio");
    ("agenp.relearns", "count"); ("agenp.examples_per_relearn", "count");
    ("agenp.relearn_ms", "ms"); ("ilp.learn_ms", "ms");
    ("ilp.witnesses_ms", "ms"); ("ilp.kill_matrix_ms", "ms");
    ("ilp.search_ms", "ms"); ("ilp.witnesses", "count");
    ("ilp.candidates", "count"); ("ilp.nodes", "count"); ("ilp.pruned", "count");
    ("ilp.kill_cells", "count"); ("ilp.learn_words", "words");
    ("obs.trace_overhead_pct", "%"); ("host.calib_ms", "ms");
    ("host.raw_req_per_s", "1/s"); ("host.nproc", "count");
  ]

let complete_per_layer measured =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name per_layer_units) then
        failwith ("unlisted per-layer metric " ^ x.name))
    measured;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> String.equal x.name name) measured with
      | Some x -> x
      | None -> m name unit 0.0)
    per_layer_units

let usage () =
  prerr_endline
    "usage: main.exe --workload hot|cold|adapt --seed N --seconds S --trace 0|1 \
     [--tiny]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 in
  let trace = ref false and tiny = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some x when x > 0.0 -> seconds := x | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--tiny" :: rest -> tiny := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let nproc = Domain.recommended_domain_count () in
  Par.Config.set_domains 1;
  Printf.printf "host: nproc %d, OCaml %s, calibration loop %.3f ms raw (reference %.3f ms)\n%!"
    nproc Sys.ocaml_version (calib_ns () /. 1e6) (calib_ref_ns /. 1e6);
  let run =
    match !workload with
    | "hot" -> Serving.run Serving.Hot
    | "cold" -> Serving.run Serving.Cold
    | "adapt" -> Adapting.run
    | _ -> usage ()
  in
  let metrics = run ~seed ~seconds:!seconds ~traced:!trace ~tiny:!tiny in
  let metrics =
    if not !trace then metrics
    else begin
      let layer = complete_per_layer (m "host.nproc" "count" (float_of_int nproc) :: metrics) in
      Printf.printf "per-layer metrics:\n";
      List.iter pp_metric layer;
      Printf.printf "per-layer self time of the trace (%d spans):\n" !Tracing.n_seen;
      let total = List.fold_left (fun a (_, t) -> a +. t) 0.0 (Tracing.layer_self ()) in
      List.iter
        (fun (l, t) -> Printf.printf "  %-8s %10.3f ms  %5.1f%%\n" l (t *. 1e3) (t /. total *. 100.0))
        (Tracing.layer_self ());
      (try
         let dir = "perfbench/_out" in
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.jsonl" !workload seed) in
         Tracing.write path;
         Printf.printf "spans written to %s\n" path
       with Sys_error e -> Printf.printf "spans not written: %s\n" e);
      layer
    end
  in
  print_result metrics
