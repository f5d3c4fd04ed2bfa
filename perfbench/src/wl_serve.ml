(* serve-cold: an open-loop service run with many short, cold tenant
   programs. Arrivals are scheduled on the model clock by the service's
   own request generator, latency counts from the scheduled arrival, and
   the generator cannot fall behind — the loop is open. *)

open Util

let engine_config =
  Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant ~cache_size:4
    ~bg_compile:true ()

let requests = 2000
let mean_gap = 20_000

let config ~seed =
  Serve.default_config ~isolates:2 ~requests ~tenants:400 ~mean_gap ~seed ~engine:engine_config ()

(* The service seeds Math.random with this before every attempt. *)
let serve_random = 20130223

(* The latency objective the sustainable arrival rate is searched for. *)
let slo_cycles = 200_000

type tenant = { id : int; prog : Refs.program; expected : string }

type inputs = { cfg : Serve.config; tenants : tenant array }

let tenant_ids cfg =
  List.sort_uniq compare (List.map (fun (r : Serve.request) -> r.Serve.rq_tenant) (Serve.sample_requests cfg))

let programs ~seed =
  let cfg = config ~seed in
  List.map
    (fun id -> Refs.program (Printf.sprintf "tenant-%d" id) (Serve.tenant_source cfg id))
    (tenant_ids cfg)

(* Set-up: sample the traffic, build each requested tenant's program with
   its node reference output, then warm up the front end and engine
   set-up on every program. *)
let setup ~seed refs =
  let cfg = config ~seed in
  let tenants =
    Array.of_list
      (List.map
         (fun (p : Refs.program) ->
           let id = Scanf.sscanf p.name "tenant-%d" Fun.id in
           { id; prog = p; expected = Refs.expected refs p })
         (programs ~seed))
  in
  Array.iter
    (fun t -> ignore (Engine.make engine_config (Bytecode.Compile.program_of_source t.prog.source)))
    tenants;
  { cfg; tenants }

(* ------------------------------------------------------------------ *)
(* Summaries from the per-request records                              *)
(* ------------------------------------------------------------------ *)

type view = {
  served : int;
  total : int;
  p50 : int;
  p99 : int;
  busy : int;  (* model cycles the isolates spent serving *)
  sync_compile : int;
  drain : int;  (* cycles from the last arrival to the last finish *)
}

(* Busy cycles: each isolate is a single server, so a request starts at
   max(previous finish, arrival) and holds the server until its finish. *)
let view (records : Serve.record list) =
  let served = List.filter (fun r -> r.Serve.rr_outcome = Serve.Served) records in
  let lat = List.map (fun r -> r.Serve.rr_latency) served in
  let free = Hashtbl.create 4 in
  let busy = ref 0 in
  List.iter
    (fun (r : Serve.record) ->
      if r.rr_attempts > 0 then begin
        let prev = Option.value (Hashtbl.find_opt free r.rr_isolate) ~default:0 in
        busy := !busy + (r.rr_finish - max prev r.rr_arrival);
        Hashtbl.replace free r.rr_isolate r.rr_finish
      end)
    (List.sort (fun a b -> compare a.Serve.rr_id b.Serve.rr_id) records);
  let last f = List.fold_left (fun m r -> max m (f r)) 0 records in
  {
    served = List.length served;
    total = List.length records;
    p50 = nearest_rank 0.50 lat;
    p99 = nearest_rank 0.99 lat;
    busy = !busy;
    sync_compile = List.fold_left (fun acc r -> acc + r.Serve.rr_compile) 0 served;
    drain = last (fun r -> r.Serve.rr_finish) - last (fun r -> r.Serve.rr_arrival);
  }

(* ------------------------------------------------------------------ *)
(* Untraced passes                                                     *)
(* ------------------------------------------------------------------ *)

type pass = { wall : float; words : float; v : view }

let run_pass inputs =
  let w0 = minor_words_all () in
  let t0 = now () in
  let sm = Serve.run inputs.cfg in
  let wall = now () -. t0 in
  let words = minor_words_all () -. w0 in
  { wall; words; v = view sm.Serve.sm_records }

(* The isolates one after another on this domain, with no observer: the
   baseline the traced pass is compared against. *)
let serial_pass inputs =
  let reqs = Serve.sample_requests inputs.cfg in
  let t0 = now () in
  let records =
    List.concat_map
      (fun i ->
        (Serve.run_isolate_full inputs.cfg ~isolate:i (Serve.requests_for inputs.cfg reqs ~isolate:i))
          .Serve.ir_records)
      (List.init inputs.cfg.Serve.isolates Fun.id)
  in
  let wall = now () -. t0 in
  { wall; words = 0.0; v = view records }

(* The arrival rate one run sustains: every request served, served p99
   within the objective and the queue drained within one objective after
   the last arrival (no growing backlog). *)
let meets_slo inputs ~probe ~gap =
  let sm = Serve.run { inputs.cfg with Serve.mean_gap = gap } in
  let v = view sm.Serve.sm_records in
  probe ~gap v;
  v.served = v.total && v.p99 <= slo_cycles && v.drain <= slo_cycles

(* The highest sustainable rate, in requests per million model cycles:
   a bisection over the mean gap between the workload's own gap and half
   of it (twice the rate, beyond saturation), to 1% of the gap. 0 when
   even the workload's own rate misses. [probe] sees every run's figures. *)
let slo_rate inputs ~probe =
  let hi = inputs.cfg.Serve.mean_gap in
  if not (meets_slo inputs ~probe ~gap:hi) then 0.0
  else begin
    let lo = ref (hi / 2) and hi = ref hi in
    while !hi - !lo > !hi / 100 do
      let mid = (!lo + !hi) / 2 in
      if meets_slo inputs ~probe ~gap:mid then hi := mid else lo := mid
    done;
    1e6 /. float_of_int !hi
  end

(* ------------------------------------------------------------------ *)
(* Tenant sweep: output check and cold-request host time               *)
(* ------------------------------------------------------------------ *)

(* Every requested tenant program on a fresh engine under the service's
   engine configuration: one cold request (front end, set-up and run,
   timed) and [warm] warm ones, each output compared with node's. Returns
   the cold host times, the failure count and the engine reports. *)
let sweep ?(warm = 0) inputs =
  let fails = ref 0 in
  let reports = ref [] in
  let colds =
    Array.map
      (fun t ->
        let one eng =
          let r, out =
            Refs.capture (fun () ->
                Runtime.Builtins.reset_random serve_random;
                Engine.run (Lazy.force eng))
          in
          match r with
          | Ok rep when out = t.expected -> Some rep
          | _ ->
            incr fails;
            None
        in
        let t0 = now () in
        let eng = lazy (Engine.make engine_config (Bytecode.Compile.program_of_source t.prog.source)) in
        let cold = one eng in
        let host = now () -. t0 in
        let last = ref cold in
        for _ = 1 to warm do
          last := one eng
        done;
        Option.iter (fun r -> reports := r :: !reports) !last;
        host)
      inputs.tenants
  in
  (colds, !fails, !reports)

let sweep_runs ?(warm = 0) inputs = Array.length inputs.tenants * (1 + warm)

(* ------------------------------------------------------------------ *)
(* Traced pass                                                         *)
(* ------------------------------------------------------------------ *)

(* Each isolate driven through [Serve.run_isolate_full] on this domain with
   the compile-stamping sink as a default sink (so every engine the
   isolate makes carries it) and the MIR hook installed. The front end
   and engine set-up run inside the service, out of reach of the
   benchmark's spans, so they are replayed afterwards once per cold
   request (one parse, compile and make each) and subtracted from the
   isolate time to estimate the time inside [Engine.run]. *)
let traced_pass inputs =
  let cfg = inputs.cfg in
  let l = Layers.create () in
  let reqs = Spans.span l.spans "sample" (fun () -> Serve.sample_requests cfg) in
  let t0 = now () in
  let results =
    List.map
      (fun i ->
        let mine = Serve.requests_for cfg reqs ~isolate:i in
        Spans.span l.spans "isolate" ~label:(string_of_int i) (fun () ->
            Telemetry.with_default_sinks [ Layers.sink l ] (fun () ->
                Engine.with_mir_hook (Layers.mir_hook l) (fun () ->
                    let t = now () in
                    let r = Serve.run_isolate_full cfg ~isolate:i mine in
                    (r, now () -. t)))))
      (List.init cfg.Serve.isolates Fun.id)
  in
  let wall = now () -. t0 in
  let records = List.concat_map (fun (r, _) -> r.Serve.ir_records) results in
  let v = view records in
  List.iter (fun (r, _) -> Layers.add_counters l r.Serve.ir_rows) results;
  Layers.replay_backend l;
  let source = Hashtbl.create 512 in
  Array.iter (fun t -> Hashtbl.replace source t.id t.prog.source) inputs.tenants;
  List.iter
    (fun (r : Serve.record) ->
      if r.rr_attempts > 0 && not r.rr_warm then begin
        let src = Hashtbl.find source r.rr_tenant in
        let sp name f = Spans.span l.spans name ~label:(string_of_int r.rr_tenant) f in
        let ast = sp "parse" (fun () -> Jsfront.Parser.parse_program src) in
        let prog = sp "bytecode" (fun () -> Bytecode.Compile.program ast) in
        ignore (sp "make" (fun () -> Engine.make engine_config prog));
        Layers.addi l "jsfront.tokens" (List.length (Jsfront.Lexer.tokenize src));
        Layers.addi l "bytecode.instrs"
          (Array.fold_left
             (fun acc (f : Bytecode.Program.func) -> acc + Array.length f.Bytecode.Program.code)
             0 prog.Bytecode.Program.funcs)
      end)
    records;
  let iso = List.map snd results in
  let iso_sum = List.fold_left ( +. ) 0.0 iso in
  let iso_max = List.fold_left Float.max 0.0 iso in
  Layers.set l "serve.sample_s" (Spans.total l.spans "sample");
  Layers.set l "serve.isolate_s.sum" iso_sum;
  Layers.set l "serve.isolate_s.max" iso_max;
  Layers.set l "parallel.imbalance" (ratio iso_max (iso_sum /. float_of_int (List.length iso)));
  let front =
    Spans.total l.spans "parse" +. Spans.total l.spans "bytecode" +. Spans.total l.spans "make"
  in
  Layers.set l "engine.run_s" (Float.max 0.0 (iso_sum -. front));
  Layers.addi l "_exec_cycles" (v.busy - v.sync_compile);
  (* Warm/cold and tail attribution, as the service summary defines them. *)
  let served = List.filter (fun r -> r.Serve.rr_outcome = Serve.Served) records in
  let p95 = nearest_rank 0.95 (List.map (fun r -> r.Serve.rr_latency) served) in
  let tail = List.filter (fun r -> r.Serve.rr_latency >= p95) served in
  let count p xs = float_of_int (List.length (List.filter p xs)) in
  let cold r = not r.Serve.rr_warm in
  let sumf f xs = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 xs) in
  Layers.set l "serve.cold_frac" (ratio (count cold served) (float_of_int (List.length served)));
  Layers.set l "serve.tail_cold_frac" (ratio (count cold tail) (float_of_int (List.length tail)));
  Layers.set l "serve.tail_compile_pct"
    (100.0 *. ratio (sumf (fun r -> r.Serve.rr_compile) tail) (sumf (fun r -> r.Serve.rr_latency) tail));
  Layers.finish l;
  (l, { wall; words = 0.0; v })

(* Report-derived engine metrics for serve-cold come from the tenant
   sweep's engines: the service keeps its engines' reports to itself. *)
let add_sweep_reports (l : Layers.t) reports =
  List.iter
    (fun (r : Engine.report) ->
      Layers.addi l "engine.recompiles" r.Engine.recompilations;
      Layers.addi l "_specialized_funcs" r.Engine.specialized_funcs;
      Layers.addi l "_successful_funcs" r.Engine.successful_funcs)
    reports;
  Layers.set l "engine.spec_success_ratio"
    (ratio (Layers.get l "_successful_funcs") (Layers.get l "_specialized_funcs"))
