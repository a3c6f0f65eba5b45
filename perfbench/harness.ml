(* Timing, host calibration, exact statistics and result printing shared
   by the perfbench workloads.

   Every timing the benchmark reports is host-calibrated: each timed round
   is bracketed by one run of a fixed calibration loop, the round's raw
   time is divided by the mean of the two calibration runs beside it, and
   the quotient is scaled by the loop's fixed reference time. A host that
   runs everything 30% slower for a while (CPU steal, frequency scaling,
   a noisy neighbour) slows the loop by about as much, so the calibrated
   figure moves far less than the raw one. *)

(* ---- clock ------------------------------------------------------------- *)

(* Nanosecond monotonic clock (CLOCK_MONOTONIC, no allocation). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- calibration loop -------------------------------------------------- *)

(* The loop mimics the shape of a served request: structural hashing of
   small term trees, Hashtbl probes under a mutex, atomic counter bumps,
   short Printf-formatted IDs and short-lived list allocation. Its work is
   fixed forever; changing it would change every calibrated figure. *)
type cnode = Leaf of string | Node of string * cnode list

let calib_terms =
  Array.init 48 (fun i ->
      Node
        ( "attr",
          [
            Leaf (Printf.sprintf "c%d" (i mod 5));
            Node ("v", [ Leaf (string_of_int i) ]);
            Leaf "x";
          ] ))

let calib_mu = Mutex.create ()
let calib_count = Atomic.make 0
let calib_tbl : (int, cnode list) Hashtbl.t = Hashtbl.create 256

let calib_work () =
  let acc = ref 0 in
  for rep = 1 to 40 do
    let l = ref [] in
    Array.iteri
      (fun i t ->
        let h = Hashtbl.hash t in
        acc := !acc lxor h;
        Mutex.lock calib_mu;
        (match Hashtbl.find_opt calib_tbl (h land 255) with
        | Some x -> acc := !acc + List.length x
        | None -> Hashtbl.replace calib_tbl (h land 255) [ t ]);
        Mutex.unlock calib_mu;
        Atomic.incr calib_count;
        if i land 7 = 0 then
          acc := !acc + String.length (Printf.sprintf "%05x-%06d" (h land 0xfffff) rep);
        l := (i, t) :: !l)
      calib_terms;
    acc := !acc + List.length (List.rev !l)
  done;
  !acc

(* The loop's reference duration: calibrated times read as if the loop
   took exactly this long. A nominal constant close to the loop's time on
   a 2-vCPU x86-64 KVM guest; it only sets the scale of calibrated
   figures, never their ratios. *)
let calib_ref_ns = 500_000.0

(* One calibration run, raw nanoseconds. *)
let calib_ns () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (calib_work ()));
  float_of_int (now_ns () - t0)

(* Median of three calibration runs, for rounds long enough that one run
   beside them is a thin sample of the host's speed. *)
let calib3_ns () =
  let a = calib_ns () in
  let b = calib_ns () in
  let c = calib_ns () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* ---- exact statistics -------------------------------------------------- *)

(* Median of a list (mean of the middle pair for an even count). *)
let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Nearest-rank quantile of the samples in [sorted], which is sorted. *)
let quantile_sorted (sorted : float array) q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

(* Exact nearest-rank quantile of [samples] (sorts a copy; no bucketing). *)
let quantile (samples : float array) q =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  quantile_sorted s q

(* ---- calibrated rounds ------------------------------------------------- *)

(* Per-round figures of one timed phase, in arrays allocated before the
   phase starts so that the bookkeeping does not grow the heap while it
   runs. Every value is calibrated except the [raw_rps] and [calib_ms]
   diagnostics. *)
let max_rounds = 16_384

type rounds = {
  rps : float array;  (** requests per second *)
  p50_us : float array;
  p99_us : float array;
  mean_us : float array;
  raw_rps : float array;
  calib_ms : float array;  (** raw calibration-loop time *)
  mutable n : int;  (** rounds recorded *)
  mutable requests : int;
  mutable total_ns : float;  (** calibrated time of all requests *)
  scratch : float array;  (** sorting space, one round long *)
}

let new_rounds ~round =
  let a () = Array.make max_rounds 0.0 in
  {
    rps = a (); p50_us = a (); p99_us = a (); mean_us = a (); raw_rps = a ();
    calib_ms = a (); n = 0; requests = 0; total_ns = 0.0;
    scratch = Array.make round 0.0;
  }

let full r = r.n >= max_rounds

(* Median over the recorded rounds of one per-round figure. *)
let med r (a : float array) = median (Array.to_list (Array.sub a 0 r.n))

(* Record a round whose raw per-request times fill [lat] (one round
   long), run between calibration runs [c0] and [c1]. Returns the round's
   calibration factor: reference time / mean of the two runs. *)
let record_round r ~lat ~c0 ~c1 =
  let c = (c0 +. c1) /. 2.0 in
  let f = calib_ref_ns /. c in
  let n = Array.length lat in
  let raw = Array.fold_left ( +. ) 0.0 lat in
  let cal = raw *. f in
  Array.blit lat 0 r.scratch 0 n;
  Array.sort Float.compare r.scratch;
  let k = r.n in
  r.rps.(k) <- float_of_int n *. 1e9 /. cal;
  r.raw_rps.(k) <- float_of_int n *. 1e9 /. raw;
  r.mean_us.(k) <- cal /. float_of_int n /. 1e3;
  r.p50_us.(k) <- quantile_sorted r.scratch 0.50 *. f /. 1e3;
  r.p99_us.(k) <- quantile_sorted r.scratch 0.99 *. f /. 1e3;
  r.calib_ms.(k) <- c /. 1e6;
  r.n <- k + 1;
  r.requests <- r.requests + n;
  r.total_ns <- r.total_ns +. cal;
  f

(* Time [f] once between two calibration runs; returns (calibrated
   seconds, result). *)
let calibrated_once f =
  let c0 = calib_ns () in
  let t0 = now_ns () in
  let x = f () in
  let dt = float_of_int (now_ns () - t0) in
  let c1 = calib_ns () in
  (dt *. calib_ref_ns /. ((c0 +. c1) /. 2.0) /. 1e9, x)

(* An Obs histogram boxes a float whenever an observation sets a new
   minimum or maximum, so without this a run's allocation count would
   depend on its timing. Pinning every histogram's range to [0, 1e9 s]
   before timing puts them in the steady state of a long-running process,
   where new extremes no longer occur, so allocation counts repeat
   exactly. [names] are span names that may not have been seen yet. *)
let settle_histograms names =
  List.iter (fun n -> ignore (Obs.Histogram.make n)) names;
  List.iter
    (fun h ->
      Obs.Histogram.observe h 0.0;
      Obs.Histogram.observe h 1e9)
    (Obs.Histogram.all ())

(* ---- run-wide accounting ----------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

(* Checks other than per-request decisions (replay identities, hit-rate
   invariants); any failure makes the run incorrect. *)
let check_failures : string list ref = ref []

let fail_check msg =
  check_failures := msg :: !check_failures;
  Printf.printf "CHECK FAILED: %s\n%!" msg

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---- output ------------------------------------------------------------ *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

let pp_metric { name; unit; value } =
  Printf.printf "  %-28s %18.6f %s\n" name value unit

(* The machine-readable result: the last line of standard output. *)
let print_result metrics =
  let correct = tally.failed = 0 && !check_failures = [] in
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "non-finite metric value"
  in
  let body =
    String.concat ", "
      (List.map
         (fun { name; unit; value } ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (num value) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed body
