(* Benchmark/experiment driver: regenerates every table and figure in
   EXPERIMENTS.md. Usage:
     dune exec bench/main.exe                 -- full run
     dune exec bench/main.exe -- --quick      -- reduced sizes
     dune exec bench/main.exe -- --timings    -- add Bechamel micro-benches
     dune exec bench/main.exe -- --trace F    -- write a Chrome trace to F
     dune exec bench/main.exe -- --flamegraph F -- speedscope (.json) / folded
     dune exec bench/main.exe -- --log F      -- JSONL structured log (debug)
     dune exec bench/main.exe -- --domains N  -- parallelism degree (Par.Config)
     dune exec bench/main.exe -- fig3a cav    -- selected experiments only
     dune exec bench/main.exe -- gate ...     -- perf regression gate (Gate) *)

let registry =
  [
    ("fig1", Experiments.fig1_workflow);
    ("fig2", Experiments.fig2_loop);
    ("fig3a", Experiments.fig3a);
    ("fig3b-overfit", Experiments.fig3b_overfit);
    ("fig3b-unsafe", Experiments.fig3b_unsafe);
    ("fig3b-noise", Experiments.fig3b_noise);
    ("cav", Experiments.cav_curve);
    ("resupply", Experiments.resupply);
    ("convoy", Experiments.convoy);
    ("sharing", Experiments.sharing);
    ("byzantine", Experiments.byzantine);
    ("quality", Experiments.quality);
    ("explain", Experiments.explain);
    ("datashare", Experiments.datashare);
    ("utility", Experiments.utility);
    ("preference", Experiments.preference);
    ("federated", Experiments.federated);
    ("perf", Experiments.perf);
    ("par", Experiments.par);
    ("serve", Experiments.serve);
    ("drift", Experiments.drift);
  ]

(* Extract "FLAG FILE" from the raw argument list, returning the file
   (if any) and the arguments with both tokens removed. *)
let rec extract_opt flag = function
  | [] -> (None, [])
  | f :: file :: rest when f = flag ->
    let _, rest = extract_opt flag rest in
    (Some file, rest)
  | a :: rest ->
    let v, rest = extract_opt flag rest in
    (v, a :: rest)

(* Same for "--domains N": the process-wide parallelism degree every
   experiment inherits through Par.Config (the "par" experiment builds
   its own pools on top and is unaffected). *)
let rec extract_domains = function
  | [] -> (None, [])
  | "--domains" :: n :: rest ->
    let _, rest = extract_domains rest in
    (int_of_string_opt n, rest)
  | a :: rest ->
    let d, rest = extract_domains rest in
    (d, a :: rest)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* "gate" is a subcommand with its own argument grammar, not an
     experiment name — dispatch before any flag extraction *)
  (match args with
  | "gate" :: gate_args -> exit (Gate.run gate_args)
  | _ -> ());
  let trace_file, args = extract_opt "--trace" args in
  let flamegraph_file, args = extract_opt "--flamegraph" args in
  let log_file, args = extract_opt "--log" args in
  let domains, args = extract_domains args in
  Option.iter Par.Config.set_domains domains;
  let quick = List.mem "--quick" args in
  let timings = List.mem "--timings" args in
  let selected =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  let to_run =
    match selected with
    | [] -> registry
    | names ->
      List.filter (fun (name, _) -> List.mem name names) registry
  in
  if to_run = [] then begin
    Fmt.pr "unknown experiment; available: %s@."
      (String.concat ", " (List.map fst registry));
    exit 1
  end;
  (* Coarse spans only: a full experiment run produces millions of fine
     spans, so the detail gate stays shut to bound trace memory. *)
  if trace_file <> None || flamegraph_file <> None then Obs.Trace.start ();
  (match log_file with
  | Some path ->
    Obs.Log.open_file path;
    Obs.Log.set_level Obs.Log.Debug
  | None -> ());
  let t0 = Sys.time () in
  List.iter
    (fun (name, f) -> Obs.span ("bench." ^ name) (fun () -> f ~quick ()))
    to_run;
  if timings then Timings.run ();
  (if trace_file <> None || flamegraph_file <> None then begin
     let spans = Obs.Trace.stop () in
     (match trace_file with
     | Some path ->
       Obs.Trace.write_chrome path spans;
       Fmt.pr "@.trace: %d span(s) -> %s%s@." (List.length spans) path
         (if Obs.Trace.dropped () > 0 then
            Printf.sprintf " (%d dropped)" (Obs.Trace.dropped ())
          else "")
     | None -> ());
     match flamegraph_file with
     | Some path ->
       if Filename.check_suffix path ".json" then
         Obs.Trace.write_speedscope ~name:"agenp-bench" path spans
       else Obs.Trace.write_folded path spans;
       Fmt.pr "@.flamegraph: %d span(s) -> %s@." (List.length spans) path
     | None -> ()
   end);
  Obs.Log.close_file ();
  Fmt.pr "@.total wall time: %.1fs@." (Sys.time () -. t0)
