(* The benchmark's self-tests.

     selftest.exe SUITE_REFS SERVE_REFS

   SUITE_REFS and SERVE_REFS are reference files for the suites and for
   serve-cold at the default seed (run.py --self-test writes both). Checks
   that the deterministic metrics repeat exactly, that traced and untraced
   passes agree on them, that the per-layer bookkeeping balances, and that
   richards costs the model cycles BENCH_wall.json records for it. *)

open Perfbench

let failures = ref 0

let check name cond detail =
  if cond then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s: %s\n%!" name (Lazy.force detail)
  end

let same name a b show = check name (a = b) (lazy (Printf.sprintf "%s vs %s" (show a) (show b)))
let show_model (t, c, s) = Printf.sprintf "(cycles %d, compile %d, size %d)" t c s
let seed = 20130223

let all_ok (p : Wl_suite.pass) =
  Array.for_all (fun (r : Wl_suite.member_result) -> r.ok) p.Wl_suite.results

let suite_tests name cfg refs =
  let inputs = Wl_suite.setup cfg refs in
  ignore (Wl_suite.run_pass cfg inputs ~seed ~sweep:(-1));
  let a = Wl_suite.run_pass cfg inputs ~seed ~sweep:0 in
  let b = Wl_suite.run_pass cfg (Wl_suite.setup cfg refs) ~seed ~sweep:1 in
  check (name ^ ": every output matches node") (all_ok a && all_ok b) (lazy "mismatch");
  same (name ^ ": model figures repeat") (Wl_suite.model a) (Wl_suite.model b) show_model;
  same (name ^ ": alloc_mwords repeats") a.words b.words string_of_float;
  let l, t = Wl_suite.traced_pass cfg inputs ~seed ~sweep:2 in
  same (name ^ ": traced model figures equal untraced") (Wl_suite.model t) (Wl_suite.model a) show_model;
  let _, compile, size = Wl_suite.model a in
  let get = Layers.get l in
  check (name ^ ": compile_s + exec_s = run_s")
    (Float.abs (get "engine.compile_s" +. get "engine.exec_s" -. get "engine.run_s") < 1e-9)
    (lazy (Printf.sprintf "%g + %g <> %g" (get "engine.compile_s") (get "engine.exec_s") (get "engine.run_s")));
  check (name ^ ": compile stamps balanced") (Layers.balanced l)
    (lazy (Printf.sprintf "%d starts, %d closes, depth %d" l.starts l.closes l.depth));
  same (name ^ ": event compile cycles equal the reports'") (int_of_float (get "compile_cycles")) compile
    string_of_int;
  same (name ^ ": event code size equals the reports'") (int_of_float (get "code_size")) size string_of_int;
  same (name ^ ": backend replay reproduces the code size") (int_of_float (get "lir.native_instrs")) size
    string_of_int

let richards () =
  let m =
    List.find (fun (p : Refs.program) -> p.name = "richards") (Wl_suite.programs ())
  in
  let r =
    Runtime.Builtins.with_print_hook ignore (fun () ->
        Engine.run (Engine.make Wl_suite.jit_config (Bytecode.Compile.program_of_source m.source)))
  in
  same "suite-jit: richards model cycles = BENCH_wall.json vs.bg_richards_sync" r.Engine.total_cycles
    660028 string_of_int

let show_view (v : Wl_serve.view) =
  Printf.sprintf "(served %d, busy %d, p50 %d, p99 %d)" v.served v.busy v.p50 v.p99

let serve_tests refs =
  let inputs = Wl_serve.setup ~seed refs in
  let _, fails, _ = Wl_serve.sweep ~warm:2 inputs in
  same "serve-cold: every tenant output matches node" fails 0 string_of_int;
  let a = Wl_serve.run_pass inputs in
  let b = Wl_serve.run_pass inputs in
  same "serve-cold: service figures repeat" a.v b.v show_view;
  check "serve-cold: every request served" (a.v.served = Wl_serve.requests) (lazy (show_view a.v));
  let s = Wl_serve.serial_pass inputs in
  same "serve-cold: isolates on one domain give the same figures" s.v a.v show_view;
  let l, t = Wl_serve.traced_pass inputs in
  same "serve-cold: traced figures equal untraced" t.v a.v show_view;
  check "serve-cold: compile stamps balanced" (Layers.balanced l) (lazy "unbalanced");
  let probe ~gap:_ _ = () in
  let r1 = Wl_serve.slo_rate inputs ~probe and r2 = Wl_serve.slo_rate inputs ~probe in
  check "serve-cold: slo_rate repeats and lies in (50, 100)" (r1 = r2 && r1 > 50.0 && r1 < 100.0)
    (lazy (Printf.sprintf "%g, %g" r1 r2));
  (* On one domain every allocation is the simulation's own, so the sum
     repeats exactly. On two, a background compile cancelled after it
     started is abandoned rather than undone, and how far it got before the
     cancel depends on scheduling. *)
  Pool.set_default_jobs 1;
  ignore (Wl_serve.run_pass inputs);
  let a1 = Wl_serve.run_pass inputs in
  let b1 = Wl_serve.run_pass inputs in
  same "serve-cold: alloc_mwords repeats on one domain" a1.words b1.words string_of_float;
  same "serve-cold: one-domain figures equal two-domain ones" a1.v a.v show_view

let () =
  match Sys.argv with
  | [| _; suite_refs; serve_refs |] ->
    Pool.set_default_jobs 2;
    let suite_refs = Refs.load suite_refs in
    richards ();
    suite_tests "suite-jit" Wl_suite.jit_config suite_refs;
    suite_tests "suite-interp" Wl_suite.interp_config suite_refs;
    serve_tests (Refs.load serve_refs);
    if !failures > 0 then begin
      Printf.printf "%d self-test(s) failed\n" !failures;
      exit 1
    end
    else print_endline "all self-tests passed"
  | _ ->
    prerr_endline "usage: selftest SUITE_REFS SERVE_REFS";
    exit 2
