(* The benchmark run: set-up, timed passes, output checks and the report.

   With [trace = false] a run prints every end-to-end metric; with
   [trace = true] it prints every per-layer metric, measured on traced
   passes next to untraced ones (for the trace overhead). The last line of
   standard output is one JSON object:
   {"correct": _, "attempted": _, "failed": _, "metrics": {...}}. *)

open Util

type workload = Suite_jit | Suite_interp | Serve_cold

let workloads = [ ("suite-jit", Suite_jit); ("suite-interp", Suite_interp); ("serve-cold", Serve_cold) ]

let workload_of_string s =
  match List.assoc_opt s workloads with
  | Some w -> w
  | None -> invalid_arg ("unknown workload " ^ s ^ " (suite-jit, suite-interp, serve-cold)")

(* The programs a workload runs, for reference generation. *)
let programs w ~seed =
  match w with Suite_jit | Suite_interp -> Wl_suite.programs () | Serve_cold -> Wl_serve.programs ~seed

(* The end-to-end metrics, in report order. *)
let end_to_end =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("member_ms_geomean", "ms"); ("req_per_s", "1/s");
    ("alloc_mwords", "Mwords"); ("top_heap_mb", "MB"); ("model_cycles", "cycles");
    ("p50_cycles", "cycles");
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

type outcome = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let outcome () = { attempted = 0; failed = 0; notes = [] }

let tally o ~attempted ~failed =
  o.attempted <- o.attempted + attempted;
  o.failed <- o.failed + failed

let note o fmt = Printf.ksprintf (fun s -> o.notes <- s :: o.notes) fmt
let failed_frac o = ratio (float_of_int o.failed) (float_of_int o.attempted)

let emit o ~names values =
  List.iter
    (fun (name, unit) ->
      Printf.printf "metric %-30s %s %s\n" name (num (List.assoc name values)) unit)
    names;
  List.iter (fun n -> Printf.printf "check failed: %s\n" n) (List.rev o.notes);
  let correct = o.failed = 0 && o.notes = [] && o.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (num (List.assoc name values)) unit)
          names));
  correct

let info fmt = Printf.printf (fmt ^^ "\n%!")

let samples label xs =
  let q1, m, q3 = quartiles xs in
  info "%s: median %s q1 %s q3 %s n %d [%s]" label (num m) (num q1) (num q3) (List.length xs)
    (String.concat " " (List.map num xs))

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The host these figures were tuned on is shared: for seconds to minutes
   at a time the neighbours' load slows the VM by up to 2x, and process CPU
   time slows with it. Over five 20-second suite-jit runs the fastest sweep
   moved between 1.12 and 2.06 s. So on the suites every timed call is
   bracketed by two calibrations ({!Util.calibrate}), and its host seconds
   are scaled by [reference_kernel_s] over their geometric mean: the time
   the call would have taken with the kernel at its reference speed, the
   kernel's fastest time on the 2 GHz Xeon host the benchmark was tuned
   on. Over ten 25-second runs per suite workload this held the spread of
   the median sweep (interquartile range over median) to 3% while the raw
   one was 11-18%. serve-cold's service runs keep both domains busy and
   the one-domain kernel does not track them: over ten runs their scaled
   spread was 13% against 8% raw, so they are not scaled; its tenant
   sweeps run on one domain and are. Raw seconds are printed next to every
   scaled figure. *)
let reference_kernel_s = 8.2e-4

type 'a timed = { r : 'a; scale : float; raw : float }

(* How a call is timed; with a pool, it is settled first ({!Util.settle}). *)
type clock = Scaled of Pool.t option | Raw of Pool.t option

let timed ?(clock = Scaled None) f =
  match clock with
  | Scaled pool ->
    Option.iter settle pool;
    let c0 = calibrate () in
    let r, raw = time f in
    Option.iter settle pool;
    let c1 = calibrate () in
    { r; raw; scale = reference_kernel_s /. sqrt (c0 *. c1) }
  | Raw pool ->
    Option.iter settle pool;
    let r, raw = time f in
    { r; raw; scale = 1.0 }

(* Timed passes until [seconds] have elapsed, and at least [min] of them. *)
let repeat ?clock ~seconds ~min f =
  let t0 = now () in
  let rec go k acc =
    if k >= min && now () -. t0 >= seconds then List.rev acc
    else go (k + 1) (timed ?clock (fun () -> f k) :: acc)
  in
  go 0 []

(* [setup_reps] set-ups: [setup_s] is the median scaled time; the last
   result is kept. *)
let setup_reps = 5

let timed_setup ?clock f =
  let runs = List.init setup_reps (fun _ -> timed ?clock f) in
  let s = median (List.map (fun t -> t.raw *. t.scale) runs) in
  info "setup_s: %s (median of %d, raw median %s)" (num s) setup_reps
    (num (median (List.map (fun t -> t.raw) runs)));
  (s, (List.nth runs (setup_reps - 1)).r)

(* The scaled pass times, with the raw ones and the scales printed. *)
let pass_times label (passes : 'a timed list) wall =
  samples (label ^ " raw") (List.map (fun t -> wall t.r) passes);
  samples "host scale" (List.map (fun t -> t.scale) passes);
  let scaled = List.map (fun t -> wall t.r *. t.scale) passes in
  samples label scaled;
  scaled

(* All passes of a run must agree on the model-clock figures. *)
let check_same o what = function
  | [] -> ()
  | x :: rest ->
    if List.exists (fun y -> y <> x) rest then note o "%s differs between passes" what

(* Gc counters over a call, all domains. *)
let gc_delta f =
  let s0 = Gc.minor (); Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.minor (); Gc.quick_stat () in
  ( r,
    [
      ("gc.minor_collections", float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections));
      ("gc.major_collections", float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
      ("gc.promoted_mwords", (s1.Gc.promoted_words -. s0.Gc.promoted_words) /. 1e6);
    ] )

(* The per-layer values of the traced pass that ran fastest at reference
   speed (one pass, so identities like exec = run - compile hold in the
   printed figures), host times scaled like the end-to-end ones. [extra]
   and [gc] take precedence over the table; [wall] holds the scaled
   untraced pass times the trace overhead is measured against. *)
let layer_values o (traced : (Layers.t * float) timed list) ~wall ~extra ~gc =
  List.iter
    (fun t -> if not (Layers.balanced (fst t.r)) then note o "unbalanced compile stamps")
    traced;
  let best =
    List.fold_left
      (fun b t -> if snd t.r *. t.scale < snd b.r *. b.scale then t else b)
      (List.hd traced) traced
  in
  let l = fst best.r in
  let scaled name unit =
    let v = Layers.get l name in
    match unit with
    | "s" | "ns" | "ns/cycle" -> v *. best.scale
    | "1/s" -> v /. best.scale
    | _ -> v
  in
  let traced_wall = List.map (fun t -> snd t.r *. t.scale) traced in
  List.map
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name (extra @ gc) with
        | Some v -> v
        | None when name = "trace.overhead_pct" ->
          100.0 *. ((median traced_wall /. median wall) -. 1.0)
        | None -> scaled name unit
      in
      (name, v))
    Layers.metrics

let write_spans spans_path (traced : (Layers.t * float) timed list) =
  Option.iter
    (fun path -> Spans.write_chrome (List.map (fun t -> (fst t.r).Layers.spans) traced) path)
    spans_path

(* ------------------------------------------------------------------ *)
(* suite-jit / suite-interp                                            *)
(* ------------------------------------------------------------------ *)

(* Every member run of every sweep is one attempt; all sweeps must agree
   on the model-clock figures. *)
let suite_tally o (passes : Wl_suite.pass list) =
  List.iter
    (fun (p : Wl_suite.pass) ->
      let bad =
        Array.fold_left (fun acc (r : Wl_suite.member_result) -> if r.ok then acc else acc + 1) 0 p.results
      in
      tally o ~attempted:(Array.length p.results) ~failed:bad)
    passes;
  check_same o "model cycles, compile cycles or code size" (List.map Wl_suite.model passes)

let member_totals (p : Wl_suite.pass) =
  Array.to_list (Array.map (fun (r : Wl_suite.member_result) -> r.total) p.results)

let suite_end_to_end o ~setup_s n (passes : Wl_suite.pass timed list) =
  let ps = List.map (fun t -> t.r) passes in
  suite_tally o ps;
  let walls = pass_times "wall_s" passes (fun (p : Wl_suite.pass) -> p.wall) in
  let member_ms =
    List.init n (fun i ->
        1e3 *. median (List.map (fun t -> t.r.Wl_suite.results.(i).host *. t.scale) passes))
  in
  let first = List.hd ps in
  let total, compile, size = Wl_suite.model first in
  let words = List.map (fun (p : Wl_suite.pass) -> p.words /. 1e6) ps in
  samples "alloc_mwords" words;
  let totals = member_totals first in
  info "p99_cycles: %d" (nearest_rank 0.99 totals);
  info "compile_cycles: %d" compile;
  info "code_size: %d" size;
  info "failed_frac: %s" (num (failed_frac o));
  let wall = median walls in
  [
    ("setup_s", setup_s);
    ("wall_s", wall);
    ("member_ms_geomean", geomean member_ms);
    ("req_per_s", float_of_int n /. wall);
    ("alloc_mwords", median words);
    ("top_heap_mb", top_heap_mb ());
    ("model_cycles", float_of_int total);
    ("p50_cycles", float_of_int (nearest_rank 0.50 totals));
  ]

let run_suite o w ~seed ~seconds ~trace ~refs ~spans_path =
  let cfg = if w = Suite_jit then Wl_suite.jit_config else Wl_suite.interp_config in
  let setup_s, inputs = timed_setup (fun () -> Wl_suite.setup cfg refs) in
  (* One untimed sweep first: the first sweep of a process pays one-time
     initialisation (a few dozen words) that later sweeps do not. *)
  let _, dt = time (fun () -> Wl_suite.run_pass cfg inputs ~seed ~sweep:(-1)) in
  info "warm-up sweep: %s s" (num dt);
  let n = Array.length inputs in
  if not trace then begin
    let passes = repeat ~seconds ~min:3 (fun k -> Wl_suite.run_pass cfg inputs ~seed ~sweep:k) in
    (end_to_end, suite_end_to_end o ~setup_s n passes)
  end
  else begin
    let half = seconds /. 2.0 in
    let untraced =
      repeat ~seconds:half ~min:2 (fun k ->
          gc_delta (fun () -> Wl_suite.run_pass cfg inputs ~seed ~sweep:k))
    in
    let traced =
      repeat ~seconds:half ~min:2 (fun k ->
          let l, p = Wl_suite.traced_pass cfg inputs ~seed ~sweep:k in
          ((l, p.Wl_suite.wall), p))
    in
    let upasses = List.map (fun t -> fst t.r) untraced in
    suite_tally o (upasses @ List.map (fun t -> snd t.r) traced);
    let traced = List.map (fun t -> { t with r = fst t.r }) traced in
    write_spans spans_path traced;
    let gcs = List.map (fun t -> snd t.r) untraced in
    let gc = List.map (fun (name, _) -> (name, median (List.map (List.assoc name) gcs))) (List.hd gcs) in
    let extra =
      [
        ("p99_cycles", float_of_int (nearest_rank 0.99 (member_totals (List.hd upasses))));
        ("slo_rate", 0.0);
        ("failed_frac", failed_frac o);
      ]
    in
    let wall = List.map (fun t -> (fst t.r).Wl_suite.wall *. t.scale) untraced in
    (Layers.metrics, layer_values o traced ~wall ~extra ~gc)
  end

(* ------------------------------------------------------------------ *)
(* serve-cold                                                          *)
(* ------------------------------------------------------------------ *)

let sweep_tally ?warm o (inputs : Wl_serve.inputs) (_, fails, _) =
  tally o ~attempted:(Wl_serve.sweep_runs ?warm inputs) ~failed:fails

(* Two warm requests after the cold one, as the output check runs them. *)
let check_warm = 2

let serve_tally o (p : Wl_serve.pass) =
  tally o ~attempted:p.v.total ~failed:(p.v.total - p.v.served)

let serve_model (p : Wl_serve.pass) = (p.v.busy, p.v.p50, p.v.p99, p.v.served)

let run_serve o ~seed ~seconds ~trace ~refs ~spans_path =
  let pool = if Pool.default_jobs () > 1 then Some (Pool.default ()) else None in
  let clock = Raw pool in
  let setup_s, inputs = timed_setup ~clock (fun () -> Wl_serve.setup ~seed refs) in
  info "tenant programs: %d" (Array.length inputs.Wl_serve.tenants);
  let _, dt = time (fun () -> Wl_serve.run_pass inputs) in
  info "warm-up service run: %s s" (num dt);
  if not trace then begin
    (* Two thirds of the time on service runs, the rest on cold-request
       sweeps; then one sweep with warm requests too, for the output
       check. *)
    let passes = repeat ~clock ~seconds:(seconds *. 2.0 /. 3.0) ~min:3 (fun _ -> Wl_serve.run_pass inputs) in
    let sweeps =
      repeat ~clock:(Scaled pool) ~seconds:(seconds /. 3.0) ~min:3 (fun _ -> Wl_serve.sweep inputs)
    in
    sweep_tally ~warm:check_warm o inputs (Wl_serve.sweep ~warm:check_warm inputs);
    let ps = List.map (fun t -> t.r) passes in
    List.iter (serve_tally o) ps;
    List.iter (fun t -> sweep_tally o inputs t.r) sweeps;
    check_same o "service model figures" (List.map serve_model ps);
    let walls = pass_times "wall_s" passes (fun (p : Wl_serve.pass) -> p.wall) in
    let words = List.map (fun (p : Wl_serve.pass) -> p.words /. 1e6) ps in
    samples "alloc_mwords" words;
    let member_ms =
      List.init (Array.length inputs.tenants) (fun i ->
          1e3
          *. median
               (List.map
                  (fun t ->
                    let colds, _, _ = t.r in
                    colds.(i) *. t.scale)
                  sweeps))
    in
    let v = (List.hd ps).v in
    info "served: %d of %d" v.served v.total;
    info "p99_cycles: %d" v.p99;
    info "failed_frac: %s" (num (failed_frac o));
    let wall = median walls in
    ( end_to_end,
      [
        ("setup_s", setup_s);
        ("wall_s", wall);
        ("member_ms_geomean", geomean member_ms);
        ("req_per_s", float_of_int Wl_serve.requests /. wall);
        ("alloc_mwords", median words);
        ("top_heap_mb", top_heap_mb ());
        ("model_cycles", float_of_int v.busy);
        ("p50_cycles", float_of_int v.p50);
      ] )
  end
  else begin
    let half = seconds /. 2.0 in
    (* One service run as in the untraced workload, for the Gc and pool
       figures. *)
    let first =
      timed ~clock (fun () ->
          let st0 = Pool.stats (Pool.default ()) in
          let r = gc_delta (fun () -> Wl_serve.run_pass inputs) in
          (r, st0, Pool.stats (Pool.default ())))
    in
    let (p, gc), st0, st1 = first.r in
    serve_tally o p;
    (* The baseline for the trace overhead runs the isolates one after
       another on this domain, as the traced pass does. *)
    let untraced = repeat ~clock ~seconds:half ~min:2 (fun _ -> Wl_serve.serial_pass inputs) in
    let traced =
      repeat ~clock ~seconds:half ~min:2 (fun _ ->
          let l, p = Wl_serve.traced_pass inputs in
          ((l, p.Wl_serve.wall), p))
    in
    let tpasses = List.map (fun t -> snd t.r) traced in
    let upasses = List.map (fun t -> t.r) untraced in
    List.iter (serve_tally o) (upasses @ tpasses);
    check_same o "service model figures" (List.map serve_model ((p :: upasses) @ tpasses));
    let ((_, _, reports) as s) = Wl_serve.sweep ~warm:check_warm inputs in
    sweep_tally ~warm:check_warm o inputs s;
    let traced = List.map (fun t -> { t with r = fst t.r }) traced in
    write_spans spans_path traced;
    List.iter (fun t -> Wl_serve.add_sweep_reports (fst t.r) reports) traced;
    let slo =
      Wl_serve.slo_rate inputs ~probe:(fun ~gap (v : Wl_serve.view) ->
          info "slo probe: rate %s req/Mcycle, served %d, p99 %d, drain %d"
            (num (1e6 /. float_of_int gap))
            v.served v.p99 v.drain)
    in
    info "slo_rate: %s" (num slo);
    let extra =
      [
        ("parallel.steals", float_of_int (st1.Pool.st_steals - st0.Pool.st_steals));
        ("parallel.join_wait_s", (st1.Pool.st_join_wait -. st0.Pool.st_join_wait) *. first.scale);
        ("p99_cycles", float_of_int p.v.p99);
        ("slo_rate", slo);
        ("failed_frac", failed_frac o);
      ]
    in
    let wall = List.map (fun t -> t.r.Wl_serve.wall *. t.scale) untraced in
    (Layers.metrics, layer_values o traced ~wall ~extra ~gc)
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?spans_path w ~seed ~seconds ~trace ~refs_path =
  (* At most two domains: the caller plus one pool worker ([VS_JOBS] may
     lower it to one). *)
  let jobs =
    match Sys.getenv_opt "VS_JOBS" with
    | Some j -> int_of_string j
    | None -> Domain.recommended_domain_count ()
  in
  Pool.set_default_jobs (max 1 (min 2 jobs));
  let refs = Refs.load refs_path in
  let o = outcome () in
  let names, values =
    match w with
    | Suite_jit | Suite_interp -> run_suite o w ~seed ~seconds ~trace ~refs ~spans_path
    | Serve_cold -> run_serve o ~seed ~seconds ~trace ~refs ~spans_path
  in
  emit o ~names values
