(* Per-layer observation for the traced run.

   Everything here watches the VM from the outside: host-clock spans around
   the calls the benchmark itself makes, a telemetry sink that stamps each
   outermost synchronous compile, the engine's counter registry, and the
   MIR hook, whose graphs are replayed through the backend afterwards to
   time lowering, register allocation and code verification. *)

open Util

(* The per-layer metrics, in report order, with their units. The traced
   run prints exactly these (a layer a workload does not exercise reads
   0). BENCHMARK.json lists the same names. *)
let passes =
  [ "typer"; "gvn"; "constprop"; "inline"; "loop-inversion"; "dce"; "bounds-check-elim";
    "licm"; "guard-elim" ]

let metrics =
  [
    ("jsfront.parse_s", "s"); ("jsfront.tokens", "count"); ("jsfront.tokens_per_s", "1/s");
    ("bytecode.compile_s", "s"); ("bytecode.instrs", "count"); ("engine.make_s", "s");
    ("engine.run_s", "s"); ("engine.compile_s", "s"); ("engine.exec_s", "s");
    ("engine.exec_ns_per_cycle", "ns/cycle"); ("engine.compile_ns_per_cycle", "ns/cycle");
    ("interp.instrs", "count"); ("interp.cycles", "cycles"); ("interp.ns_per_instr", "ns");
    ("native.cycles", "cycles"); ("native.cycle_share", "ratio");
    ("engine.calls", "count"); ("engine.compiles", "count");
    ("engine.compiles_specialized", "count"); ("engine.recompiles", "count");
    ("engine.cache_hits", "count"); ("engine.cache_misses", "count");
    ("engine.cache_hit_ratio", "ratio"); ("engine.bailouts", "count");
    ("engine.deopts", "count"); ("engine.blacklists", "count");
    ("engine.osr_entries", "count"); ("engine.compiles_aborted", "count");
    ("engine.spec_success_ratio", "ratio");
    ("opt.mir_in", "count"); ("opt.mir_out", "count"); ("opt.visits", "count");
    ("opt.guards_elided", "count"); ("opt.inlined", "count");
  ]
  @ List.concat_map
      (fun p -> [ ("opt." ^ p ^ ".visits", "count"); ("opt." ^ p ^ ".removed", "count") ])
      passes
  @ [
      ("opt.build_passes_s", "s");
      ("lir.lower_s", "s"); ("lir.regalloc_s", "s"); ("lir.verify_s", "s");
      ("lir.intervals", "count"); ("lir.native_instrs", "count");
      ("bg.queued", "count"); ("bg.installed", "count"); ("bg.cancelled", "count");
      ("bg.overflow", "count"); ("bg.superseded", "count"); ("bg.install_ratio", "ratio");
      ("bg.osr_entries", "count"); ("bg.wait_cycles.p50", "cycles");
      ("bg.wait_cycles.p99", "cycles");
      ("policy.versions_widened", "count"); ("policy.versions_promoted", "count");
      ("policy.compiles_widened", "count");
      ("serve.sample_s", "s"); ("serve.isolate_s.max", "s"); ("serve.isolate_s.sum", "s");
      ("serve.cold_frac", "ratio"); ("serve.tail_cold_frac", "ratio");
      ("serve.tail_compile_pct", "%"); ("serve.shed", "count"); ("serve.retries", "count");
      ("serve.escapes", "count");
      ("parallel.steals", "count"); ("parallel.join_wait_s", "s");
      ("parallel.imbalance", "ratio");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.promoted_mwords", "Mwords");
      ("trace.overhead_pct", "%");
      ("p99_cycles", "cycles"); ("compile_cycles", "cycles");
      ("code_size", "instrs"); ("slo_rate", "req/Mcycle");
      ("failed_frac", "ratio");
    ]

(* Engine counter registry rows and the metric each one feeds. *)
let counter_metrics =
  Telemetry.Key.
    [
      (calls, "engine.calls"); (compiles, "engine.compiles");
      (compiles_specialized, "engine.compiles_specialized"); (cache_hits, "engine.cache_hits");
      (cache_misses, "engine.cache_misses"); (bailouts, "engine.bailouts");
      (deopts, "engine.deopts"); (blacklists, "engine.blacklists");
      (osr_entries, "engine.osr_entries"); (compiles_aborted, "engine.compiles_aborted");
      (guards_elided, "opt.guards_elided"); (inlined, "opt.inlined");
      (bg_queued, "bg.queued"); (bg_installed, "bg.installed"); (bg_cancelled, "bg.cancelled");
      (bg_overflow, "bg.overflow"); (bg_superseded, "bg.superseded");
      (bg_osr_entries, "bg.osr_entries"); (versions_widened, "policy.versions_widened");
      (versions_promoted, "policy.versions_promoted");
      (compiles_widened, "policy.compiles_widened");
      (Serve.Skey.shed, "serve.shed"); (Serve.Skey.retries, "serve.retries");
      (Serve.Skey.escapes, "serve.escapes");
    ]

(* ------------------------------------------------------------------ *)
(* One traced pass                                                     *)
(* ------------------------------------------------------------------ *)

(* A pass's values by metric name. Names starting with '_' are inputs to
   derived metrics and are not reported. *)
type t = {
  tbl : (string, float) Hashtbl.t;
  spans : Spans.t;
  mutable depth : int;  (* open synchronous compiles *)
  mutable compile_t0 : float;
  mutable starts : int;
  mutable closes : int;  (* Compile_end or synchronous Compile_abort *)
  mutable waits : int list;  (* Compile_ready.wait samples *)
  mutable graphs : Mir.func list;  (* MIR hook, reversed *)
}

let create () =
  {
    tbl = Hashtbl.create 128;
    spans = Spans.create ();
    depth = 0;
    compile_t0 = 0.0;
    starts = 0;
    closes = 0;
    waits = [];
    graphs = [];
  }

let get t k = Option.value (Hashtbl.find_opt t.tbl k) ~default:0.0
let set t k v = Hashtbl.replace t.tbl k v
let add t k v = set t k (get t k +. v)
let addi t k v = add t k (float_of_int v)

let add_counters t rows =
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name counter_metrics with Some m -> addi t m v | None -> ())
    rows

(* The telemetry sink. A compile span runs from the outermost
   [Compile_start] to the matching [Compile_end] or [Compile_abort];
   background compiles emit neither a start nor an end, so an abort seen
   with no compile open is a background one and closes nothing. *)
let sink t (ev : Telemetry.event) =
  let close () =
    t.depth <- t.depth - 1;
    t.closes <- t.closes + 1;
    if t.depth = 0 then begin
      let stop = now () in
      Spans.add t.spans ~name:"compile" ~label:"" ~start:t.compile_t0 ~dur:(stop -. t.compile_t0)
    end
  in
  match ev with
  | Telemetry.Compile_start _ ->
    if t.depth = 0 then t.compile_t0 <- now ();
    t.depth <- t.depth + 1;
    t.starts <- t.starts + 1
  | Compile_end { size; cycles; passes; _ } ->
    close ();
    addi t "code_size" size;
    addi t "compile_cycles" cycles;
    addi t "_sync_compile_cycles" cycles;
    (match passes with
    | first :: _ ->
      addi t "opt.mir_in" first.Telemetry.pd_before;
      addi t "opt.mir_out" (List.nth passes (List.length passes - 1)).Telemetry.pd_after
    | [] -> ());
    List.iter
      (fun (pd : Telemetry.pass_delta) ->
        addi t "opt.visits" pd.pd_before;
        addi t ("opt." ^ pd.pd_pass ^ ".visits") pd.pd_before;
        addi t ("opt." ^ pd.pd_pass ^ ".removed") (pd.pd_before - pd.pd_after))
      passes
  | Compile_abort { cycles; _ } ->
    addi t "compile_cycles" cycles;
    if t.depth > 0 then begin
      addi t "_sync_compile_cycles" cycles;
      close ()
    end
  | Compile_ready { size; cycles; wait; _ } ->
    addi t "code_size" size;
    addi t "compile_cycles" cycles;
    t.waits <- wait :: t.waits
  | _ -> ()

let mir_hook t g = t.graphs <- g :: t.graphs

(* Replay every optimized graph the engine handed to the MIR hook through
   the backend. The engine lowers the same graph itself (lowering and
   allocation build fresh code and leave the graph untouched), so this
   measures the backend's host cost for exactly the compiles of the run —
   background ones included, which no compile stamp covers. *)
let replay_backend t =
  List.iter
    (fun g ->
      let vcode = Spans.span t.spans "lower" (fun () -> Lower.run g) in
      let code, intervals = Spans.span t.spans "regalloc" (fun () -> Regalloc.run vcode) in
      Spans.span t.spans "verify" (fun () -> Code_verify.run code);
      addi t "lir.intervals" intervals;
      addi t "lir.native_instrs" (Code.size code))
    (List.rev t.graphs);
  t.graphs <- []

let balanced t = t.depth = 0 && t.starts = t.closes

(* Fill in the span totals and the derived metrics. [_exec_cycles] is the
   model-cycle count the engine's execution time is divided by. *)
let finish t =
  let span name = Spans.total t.spans name in
  set t "jsfront.parse_s" (span "parse");
  set t "bytecode.compile_s" (span "bytecode");
  set t "engine.make_s" (span "make");
  (* serve-cold has no run span and sets its estimate beforehand. *)
  if get t "engine.run_s" = 0.0 then set t "engine.run_s" (span "run");
  set t "engine.compile_s" (span "compile");
  set t "lir.lower_s" (span "lower");
  set t "lir.regalloc_s" (span "regalloc");
  set t "lir.verify_s" (span "verify");
  let run_s = get t "engine.run_s" and compile_s = get t "engine.compile_s" in
  let exec_s = run_s -. compile_s in
  set t "engine.exec_s" exec_s;
  set t "jsfront.tokens_per_s" (ratio (get t "jsfront.tokens") (get t "jsfront.parse_s"));
  set t "engine.exec_ns_per_cycle" (1e9 *. ratio exec_s (get t "_exec_cycles"));
  set t "engine.compile_ns_per_cycle" (1e9 *. ratio compile_s (get t "_sync_compile_cycles"));
  set t "interp.ns_per_instr" (1e9 *. ratio exec_s (get t "interp.instrs"));
  set t "native.cycle_share"
    (ratio (get t "native.cycles") (get t "interp.cycles" +. get t "native.cycles"));
  set t "engine.cache_hit_ratio"
    (ratio (get t "engine.cache_hits") (get t "engine.cache_hits" +. get t "engine.cache_misses"));
  set t "engine.spec_success_ratio"
    (ratio (get t "_successful_funcs") (get t "_specialized_funcs"));
  set t "bg.install_ratio" (ratio (get t "bg.installed") (get t "bg.queued"));
  set t "bg.wait_cycles.p50" (float_of_int (nearest_rank 0.50 t.waits));
  set t "bg.wait_cycles.p99" (float_of_int (nearest_rank 0.99 t.waits));
  set t "opt.build_passes_s"
    (Float.max 0.0
       (compile_s -. get t "lir.lower_s" -. get t "lir.regalloc_s" -. get t "lir.verify_s"))
