(* suite-jit and suite-interp: every member of the three suites, parsed,
   compiled to bytecode, made and run to completion, once per sweep. *)

open Util

let jit_config = Engine.default_config ~opt:Pipeline.all_on ()
let interp_config = Engine.interp_only

(* The state a fresh domain starts Math.random from, restored before every
   member so each run sees what a fresh process would. *)
let fresh_random = 0x2545F4914F6CDD1D

let programs () =
  let ps =
    List.concat_map
      (fun (s : Suite.t) ->
        List.map (fun (m : Suite.member) -> Refs.program m.Suite.m_name m.Suite.m_source) s.Suite.members)
      Suites.all
  in
  let names = List.map (fun (p : Refs.program) -> p.name) ps in
  if List.length (List.sort_uniq compare names) <> List.length names then
    failwith "suite member names are not unique";
  ps

type input = { prog : Refs.program; expected : string; tokens : int }

(* Set-up: the member table with its node reference outputs and token
   counts, then a warm-up of the front end and engine set-up on every
   member (nothing is run). *)
let setup cfg refs =
  let inputs =
    Array.of_list
      (List.map
         (fun (p : Refs.program) ->
           {
             prog = p;
             expected = Refs.expected refs p;
             tokens = List.length (Jsfront.Lexer.tokenize p.source);
           })
         (programs ()))
  in
  Array.iter
    (fun i -> ignore (Engine.make cfg (Bytecode.Compile.program_of_source i.prog.source)))
    inputs;
  inputs

(* Sweep [k]'s member order: a Fisher-Yates shuffle seeded by the
   benchmark seed and the sweep number. *)
let order ~seed ~sweep n =
  let st = Random.State.make [| seed; sweep |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

type member_result = {
  ok : bool;
  host : float;  (* seconds *)
  total : int;  (* model cycles *)
  compile : int;  (* compile cycles, synchronous and background *)
  size : int;  (* native instructions over every binary compiled *)
}

let failed = { ok = false; host = 0.0; total = 0; compile = 0; size = 0 }

let of_report ~ok ~host (r : Engine.report) =
  {
    ok;
    host;
    total = r.Engine.total_cycles;
    compile = r.Engine.compile_cycles + r.Engine.bg_compile_cycles;
    size =
      List.fold_left
        (fun acc (f : Engine.func_report) ->
          List.fold_left (fun acc (_, n) -> acc + n) acc f.Engine.fr_sizes)
        0 r.Engine.functions;
  }

let run_member cfg input =
  let t0 = now () in
  let r, out =
    Refs.capture (fun () ->
        Runtime.Builtins.reset_random fresh_random;
        Engine.run (Engine.make cfg (Bytecode.Compile.program_of_source input.prog.source)))
  in
  let host = now () -. t0 in
  match r with
  | Ok rep -> of_report ~ok:(out = input.expected) ~host rep
  | Error _ -> failed

type pass = { wall : float; words : float; results : member_result array }

let run_pass cfg inputs ~seed ~sweep =
  let results = Array.make (Array.length inputs) failed in
  let ord = order ~seed ~sweep (Array.length inputs) in
  let w0 = minor_words_all () in
  let t0 = now () in
  Array.iter (fun i -> results.(i) <- run_member cfg inputs.(i)) ord;
  let wall = now () -. t0 in
  let words = minor_words_all () -. w0 in
  { wall; words; results }

let sum f p = Array.fold_left (fun acc r -> acc + f r) 0 p.results

(* The model-clock figures of one sweep; identical in every sweep of a
   correct VM. *)
let model p = (sum (fun r -> r.total) p, sum (fun r -> r.compile) p, sum (fun r -> r.size) p)

(* ------------------------------------------------------------------ *)
(* Traced sweep                                                        *)
(* ------------------------------------------------------------------ *)

let traced_member cfg (l : Layers.t) input =
  let sp name f = Spans.span l.spans name ~label:input.prog.name f in
  let r, out =
    Refs.capture (fun () ->
        Runtime.Builtins.reset_random fresh_random;
        let ast = sp "parse" (fun () -> Jsfront.Parser.parse_program input.prog.source) in
        let prog = sp "bytecode" (fun () -> Bytecode.Compile.program ast) in
        let eng = sp "make" (fun () -> Engine.make cfg prog) in
        Telemetry.attach (Engine.telemetry eng) (Layers.sink l);
        let rep =
          sp "run" (fun () -> Engine.with_mir_hook (Layers.mir_hook l) (fun () -> Engine.run eng))
        in
        Layers.addi l "bytecode.instrs"
          (Array.fold_left
             (fun acc (f : Bytecode.Program.func) -> acc + Array.length f.Bytecode.Program.code)
             0 prog.Bytecode.Program.funcs);
        Layers.add_counters l (Telemetry.Counters.rows (Telemetry.counters (Engine.telemetry eng)));
        rep)
  in
  Layers.addi l "jsfront.tokens" input.tokens;
  Layers.replay_backend l;
  match r with
  | Ok rep ->
    Layers.addi l "interp.instrs" rep.Engine.bytecode_instrs;
    Layers.addi l "interp.cycles" rep.Engine.interp_cycles;
    Layers.addi l "native.cycles" rep.Engine.native_cycles;
    Layers.addi l "_exec_cycles" (rep.Engine.interp_cycles + rep.Engine.native_cycles);
    Layers.addi l "engine.recompiles" rep.Engine.recompilations;
    Layers.addi l "_specialized_funcs" rep.Engine.specialized_funcs;
    Layers.addi l "_successful_funcs" rep.Engine.successful_funcs;
    of_report ~ok:(out = input.expected) ~host:0.0 rep
  | Error _ -> failed

(* One traced sweep: the per-layer table and the sweep's host time with the
   backend replays (extra work, not tracing overhead) taken out. *)
let traced_pass cfg inputs ~seed ~sweep =
  let l = Layers.create () in
  let results = Array.make (Array.length inputs) failed in
  let ord = order ~seed ~sweep (Array.length inputs) in
  let t0 = now () in
  Array.iter (fun i -> results.(i) <- traced_member cfg l inputs.(i)) ord;
  let wall = now () -. t0 in
  let replay =
    Spans.total l.spans "lower" +. Spans.total l.spans "regalloc" +. Spans.total l.spans "verify"
  in
  Layers.finish l;
  (l, { wall = wall -. replay; words = 0.0; results })
