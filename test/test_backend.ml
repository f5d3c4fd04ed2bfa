(* Tests for LIR lowering, register allocation, and the native executor. *)

open Runtime

let compile_fn ?spec_args ?arg_tags ?(config = Pipeline.baseline) src fid =
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(fid) in
  let f = Builder.build ~program ~func ?spec_args ?arg_tags () in
  ignore (Pipeline.apply ~program config f);
  let vcode = Lower.run f in
  let code, intervals = Regalloc.run vcode in
  (program, func, code, intervals)

let exec ?(globals = [||]) code ~func ~args =
  let cycles = ref 0 in
  let cb =
    {
      Exec.call = (fun _ _ -> Alcotest.fail "unexpected call");
      globals;
      cycles;
      charge = None;
      tick = None;
      faults = false;
    }
  in
  (* Bind before pairing: tuple components evaluate right to left. *)
  let outcome =
    match Exec.call cb (Exec.load code) ~func ~env:[||] ~args with
    | v -> Ok v
    | exception Exec.Bailout b -> Error b
  in
  (outcome, !cycles)

let value = Alcotest.testable Value.pp Value.same_value

let check_finished name expected outcome =
  match outcome with
  | Ok v -> Alcotest.check value name expected v
  | Error b -> Alcotest.failf "%s: unexpected bailout (%s)" name b.Exec.bo_reason

(* --- lowering --- *)

let test_lowered_code_is_allocated () =
  let _, _, code, _ =
    compile_fn "function f(a, b) { return a * b + 1; }" 1
      ~arg_tags:Value.[| Some Tag_int; Some Tag_int |]
  in
  Array.iter
    (fun n ->
      let check_src = function
        | Code.L (Code.V _) -> Alcotest.fail "virtual register survived allocation"
        | _ -> ()
      in
      match n with
      | Code.Op { dst; args; _ } ->
        (match dst with Some (Code.V _) -> Alcotest.fail "virtual dst" | _ -> ());
        Array.iter check_src args
      | Code.Branch (c, _, _) -> check_src c
      | Code.Ret s -> check_src s
      | Code.Jump _ -> ())
    code.Code.instrs

let test_constants_become_immediates () =
  let _, _, code, _ =
    compile_fn "function f() { return 2 + 3; }" 1 ~config:Pipeline.best
      ~spec_args:[||]
  in
  (* The whole body folds; only a return of an immediate remains. *)
  Alcotest.(check bool) "tiny code" true (Code.size code <= 2);
  match code.Code.instrs.(Code.size code - 1) with
  | Code.Ret (Code.Imm (Value.Int 5)) -> ()
  | other -> Alcotest.failf "expected ret $5, got %s" (Code.ninstr_to_string other)

let test_exec_arithmetic () =
  let _, func, code, _ =
    compile_fn "function f(a, b) { return (a + b) * (a - b); }" 1
      ~arg_tags:Value.[| Some Tag_int; Some Tag_int |]
  in
  let outcome, _ = exec code ~func ~args:[| Value.Int 7; Value.Int 3 |] in
  check_finished "(7+3)*(7-3)" (Value.Int 40) outcome

let test_exec_control_flow () =
  let src = "function f(n) { var t = 0; for (var i = 1; i <= n; i++) t += i; return t; }" in
  let _, func, code, _ = compile_fn src 1 ~arg_tags:Value.[| Some Tag_int |] in
  let outcome, _ = exec code ~func ~args:[| Value.Int 100 |] in
  check_finished "gauss" (Value.Int 5050) outcome

let test_exec_heap_traffic () =
  let src =
    "function f(n) { var a = new Array(n); for (var i = 0; i < n; i++) a[i] = i * i; \
     var o = {sum: 0}; for (var i = 0; i < n; i++) o.sum += a[i]; return o.sum; }"
  in
  let _, func, code, _ = compile_fn src 1 ~arg_tags:Value.[| Some Tag_int |] in
  let outcome, _ = exec code ~func ~args:[| Value.Int 10 |] in
  check_finished "sum of squares" (Value.Int 285) outcome

let test_exec_type_barrier_bails () =
  let _, func, code, _ =
    compile_fn "function f(a) { return a + 1; }" 1 ~arg_tags:Value.[| Some Tag_int |]
  in
  let outcome, _ = exec code ~func ~args:[| Value.Str "boom" |] in
  match outcome with
  | Error b ->
    Alcotest.(check int) "resumes at entry" 0 b.Exec.bo_pc;
    Alcotest.(check bool) "argument recovered" true
      (Value.same_value b.Exec.bo_args.(0) (Value.Str "boom"))
  | Ok _ -> Alcotest.fail "expected a type-barrier bailout"

let test_exec_bounds_check_bails_with_state () =
  let src = "function f(s, i) { var marker = i * 10; return s[i] + marker; }" in
  let _, func, code, _ =
    compile_fn src 1 ~arg_tags:Value.[| Some Tag_array; Some Tag_int |]
  in
  let arr = Value.Arr (Value.arr_of_list [ Value.Int 5 ]) in
  (* In-bounds works natively. *)
  let ok, _ = exec code ~func ~args:[| arr; Value.Int 0 |] in
  check_finished "in bounds" (Value.Int 5) ok;
  (* Out of bounds bails with the locals reconstructed. *)
  let outcome, _ = exec code ~func ~args:[| arr; Value.Int 7 |] in
  match outcome with
  | Error b ->
    Alcotest.(check bool) "marker local recovered" true
      (Array.exists (fun v -> Value.same_value v (Value.Int 70)) b.Exec.bo_locals)
  | Ok _ -> Alcotest.fail "expected bounds bailout"

let test_exec_overflow_bails () =
  let _, func, code, _ =
    compile_fn "function f(a) { return a + 1; }" 1 ~arg_tags:Value.[| Some Tag_int |]
  in
  let outcome, _ = exec code ~func ~args:[| Value.Int Value.int32_max |] in
  match outcome with
  | Error b -> Alcotest.(check string) "reason" "int32 overflow" b.Exec.bo_reason
  | Ok _ -> Alcotest.fail "expected overflow bailout"

let test_exec_globals () =
  let src = "g = 0; function bump(n) { g = g + n; return g; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func ~arg_tags:Value.[| Some Tag_int |] () in
  ignore (Pipeline.apply ~program Pipeline.baseline f);
  let code, _ = Regalloc.run (Lower.run f) in
  let globals = Array.make (Array.length program.Bytecode.Program.global_names) Value.Undefined in
  let slot = Option.get (Bytecode.Program.global_slot program "g") in
  globals.(slot) <- Value.Int 10;
  let outcome, _ = exec ~globals code ~func ~args:[| Value.Int 5 |] in
  check_finished "returns updated" (Value.Int 15) outcome;
  Alcotest.check value "global written" (Value.Int 15) globals.(slot)

let test_specialized_code_smaller_and_faster () =
  let src = "function f(a, b, n) { var t = 0; for (var i = 0; i < n; i++) t = (t + a * b) | 0; return t; }" in
  let tags = Value.[| Some Tag_int; Some Tag_int; Some Tag_int |] in
  let _, func, generic, _ = compile_fn src 1 ~arg_tags:tags ~config:Pipeline.baseline in
  let args = [| Value.Int 3; Value.Int 4; Value.Int 50 |] in
  let _, _, spec, _ = compile_fn src 1 ~spec_args:args ~config:Pipeline.best in
  Alcotest.(check bool) "specialized code is smaller" true
    (Code.size spec < Code.size generic);
  let out_g, cyc_g = exec generic ~func ~args in
  let out_s, cyc_s = exec spec ~func ~args in
  check_finished "generic result" (Value.Int 600) out_g;
  check_finished "specialized result" (Value.Int 600) out_s;
  Alcotest.(check bool) "specialized runs in fewer cycles" true (cyc_s < cyc_g)

let test_regalloc_spills_under_pressure () =
  (* More than num_registers simultaneously-live values force slots. *)
  let vars = List.init 20 (fun i -> Printf.sprintf "v%d" i) in
  let decls =
    String.concat "" (List.mapi (fun i v -> Printf.sprintf "var %s = x + %d;\n" v i) vars)
  in
  let sum = String.concat " + " vars in
  let src = Printf.sprintf "function f(x) {\n%sreturn (%s) | 0;\n}" decls sum in
  let _, func, code, intervals =
    compile_fn src 1 ~arg_tags:Value.[| Some Tag_int |]
  in
  Alcotest.(check bool) "spill slots allocated" true (code.Code.nslots > 0);
  Alcotest.(check bool) "many intervals" true (intervals > Regalloc.num_registers);
  let outcome, _ = exec code ~func ~args:[| Value.Int 1 |] in
  check_finished "sum correct" (Value.Int (20 + 190)) outcome

(* qcheck: random int-typed expressions compile and execute to the
   interpreter's value. *)
let rec gen_expr_src_ref () = gen_expr_src

and gen_expr_src =
  let open QCheck.Gen in
  let rec expr n =
    if n = 0 then oneof [ oneofl [ "a"; "b" ]; map string_of_int (int_range 0 20) ]
    else
      let* x = expr (n - 1) in
      let* y = expr (n - 1) in
      let* o = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
      return (Printf.sprintf "((%s %s %s) | 0)" x o y)
  in
  let* e = expr 3 in
  return (Printf.sprintf "function f(a, b) { return %s; }" e)

(* Three-way differential: the bytecode interpreter, the MIR reference
   evaluator and the native executor must agree on generated expressions.
   A mismatch at the MIR level blames a pass; at the native level, the
   backend. *)
let eval_mir f ~func ~args =
  let env =
    {
      Eval.ev_args = args;
      ev_env = [||];
      ev_cells = Array.init (max func.Bytecode.Program.ncells 1) (fun _ -> ref Value.Undefined);
      ev_globals = [||];
      ev_call = (fun _ _ -> Alcotest.fail "unexpected call");
      ev_osr_args = [||];
      ev_osr_locals = [||];
    }
  in
  Eval.run env f ~at_osr:false

let prop_three_way_differential =
  QCheck.Test.make ~name:"interp = MIR evaluator = native executor" ~count:150
    QCheck.(
      make
        ~print:(fun (s, a, b) -> Printf.sprintf "%s with (%d, %d)" s a b)
        Gen.(
          let* s = gen_expr_src_ref () in
          let* a = int_range (-100) 100 in
          let* b = int_range (-100) 100 in
          return (s, a, b)))
    (fun (src, a, b) ->
      let program = Bytecode.Compile.program_of_source src in
      let func = program.Bytecode.Program.funcs.(1) in
      let istate = Interp.make_state program in
      let hooks = Interp.default_hooks istate in
      let args = [| Value.Int a; Value.Int b |] in
      let frame = Interp.make_frame func ~args:(Array.copy args) ~upvals:[||] in
      let expected = Interp.run istate hooks frame in
      let f =
        Builder.build ~program ~func ~arg_tags:Value.[| Some Tag_int; Some Tag_int |] ()
      in
      ignore (Pipeline.apply ~program Pipeline.best f);
      let mir_agrees =
        match eval_mir f ~func ~args with
        | Eval.Finished v -> Value.same_value v expected
        | Eval.Bailed _ -> true
      in
      let code, _ = Regalloc.run (Lower.run f) in
      let cb =
        { Exec.call = (fun _ _ -> assert false); globals = [||]; cycles = ref 0;
          charge = None; tick = None; faults = false }
      in
      let native_agrees =
        match Exec.call cb (Exec.load code) ~func ~env:[||] ~args with
        | v -> Value.same_value v expected
        | exception Exec.Bailout _ -> true
      in
      mir_agrees && native_agrees)

let prop_native_matches_interp =
  QCheck.Test.make ~name:"native code computes what the interpreter computes" ~count:150
    QCheck.(
      make
        ~print:(fun (s, a, b) -> Printf.sprintf "%s with (%d, %d)" s a b)
        Gen.(
          let* s = gen_expr_src in
          let* a = int_range (-100) 100 in
          let* b = int_range (-100) 100 in
          return (s, a, b)))
    (fun (src, a, b) ->
      let program = Bytecode.Compile.program_of_source src in
      let func = program.Bytecode.Program.funcs.(1) in
      let istate = Interp.make_state program in
      let hooks = Interp.default_hooks istate in
      let args = [| Value.Int a; Value.Int b |] in
      let frame = Interp.make_frame func ~args:(Array.copy args) ~upvals:[||] in
      let expected = Interp.run istate hooks frame in
      let f =
        Builder.build ~program ~func ~arg_tags:Value.[| Some Tag_int; Some Tag_int |] ()
      in
      ignore (Pipeline.apply ~program Pipeline.baseline f);
      let code, _ = Regalloc.run (Lower.run f) in
      let cb =
        { Exec.call = (fun _ _ -> assert false); globals = [||]; cycles = ref 0;
          charge = None; tick = None; faults = false }
      in
      match Exec.call cb (Exec.load code) ~func ~env:[||] ~args with
      | v -> Value.same_value v expected
      | exception Exec.Bailout _ -> true (* overflow guards may fire; resume is engine-level *))

(* --- the loaded executor --- *)

let origin = { Mir.o_fid = 1; o_pc = 0; o_def = 0; o_pass = "test" }

let hand_code ?(nslots = 0) ?(snapshots = [||]) instrs =
  {
    Code.fid = 1;
    instrs;
    origins = Array.map (fun _ -> origin) instrs;
    snapshots;
    nslots;
    osr_offset = None;
    specialized = false;
    widened = false;
    version = 0;
  }

let one_arg_func =
  let program = Bytecode.Compile.program_of_source "function f(x) { return x; }" in
  program.Bytecode.Program.funcs.(1)

(* A failing guard's snapshot is read when the guard fails: an immediate
   comes from the snapshot itself, a register and a spill slot from the
   activation's current values. *)
let test_bail_rebuilds_snapshot () =
  let code =
    hand_code ~nslots:1
      ~snapshots:
        [|
          {
            Code.sn_pc = 3;
            sn_args = [| Code.L (Code.R 0) |];
            sn_locals = [| Code.Imm (Value.Str "k"); Code.L (Code.S 0) |];
            sn_stack = [| Code.L (Code.R 0) |];
          };
        |]
      [|
        Code.Op { dst = Some (Code.R 0); op = Code.Param 0; args = [||]; snap = None };
        Code.Op
          { dst = Some (Code.S 0); op = Code.Move; args = [| Code.Imm (Value.Int 7) |];
            snap = None };
        Code.Op
          { dst = Some (Code.R 1); op = Code.Guard_type Value.Tag_int;
            args = [| Code.L (Code.R 0) |]; snap = Some 0 };
        Code.Ret (Code.L (Code.R 1));
      |]
  in
  let ok, _ = exec code ~func:one_arg_func ~args:[| Value.Int 4 |] in
  check_finished "guard passes" (Value.Int 4) ok;
  match exec code ~func:one_arg_func ~args:[| Value.Str "x" |] with
  | Error b, cycles ->
    let values = Alcotest.(array value) in
    Alcotest.(check int) "bytecode pc" 3 b.Exec.bo_pc;
    Alcotest.(check int) "native pc" 2 b.Exec.bo_native_pc;
    Alcotest.check values "args" [| Value.Str "x" |] b.Exec.bo_args;
    Alcotest.check values "locals: immediate, spill slot" [| Value.Str "k"; Value.Int 7 |]
      b.Exec.bo_locals;
    Alcotest.check values "stack: register" [| Value.Str "x" |] b.Exec.bo_stack;
    let instrs = Array.sub code.Code.instrs 0 3 in
    Alcotest.(check int) "three instructions and the penalty"
      (Array.fold_left (fun n i -> n + Cost.instr i) Cost.bailout_penalty instrs)
      cycles
  | Ok _, _ -> Alcotest.fail "expected a type-barrier bailout"

(* [load] rejects unallocated operands; a guard without a snapshot is
   only an error when it fails. *)
let test_load_rejects_virtual_registers () =
  let code =
    hand_code
      [|
        Code.Op { dst = Some (Code.R 0); op = Code.Move; args = [| Code.L (Code.V 3) |]; snap = None };
        Code.Ret (Code.L (Code.R 0));
      |]
  in
  match Exec.load code with
  | _ -> Alcotest.fail "load accepted a virtual register"
  | exception Invalid_argument _ -> ()

let test_snapshotless_guard_fails_at_run () =
  let code =
    hand_code
      [|
        Code.Op { dst = Some (Code.R 0); op = Code.Param 0; args = [||]; snap = None };
        Code.Op
          { dst = Some (Code.R 1); op = Code.Guard_type Value.Tag_int;
            args = [| Code.L (Code.R 0) |]; snap = None };
        Code.Ret (Code.L (Code.R 1));
      |]
  in
  let ok, _ = exec code ~func:one_arg_func ~args:[| Value.Int 4 |] in
  check_finished "passing guard" (Value.Int 4) ok;
  match exec code ~func:one_arg_func ~args:[| Value.Str "x" |] with
  | _ -> Alcotest.fail "a failing snapshot-less guard must raise"
  | exception Invalid_argument _ -> ()

let member_source name =
  let m =
    List.find_map
      (fun (s : Suite.t) ->
        List.find_opt (fun (m : Suite.member) -> m.Suite.m_name = name) s.Suite.members)
      Suites.all
  in
  (Option.get m).Suite.m_source

(* One member on a fresh engine under the suite configuration: printed
   output, report and every counter row. *)
let run_member ?recorder name =
  let program = Bytecode.Compile.program_of_source (member_source name) in
  let buf = Buffer.create 256 in
  Builtins.with_print_hook
    (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
    (fun () ->
      let engine = Engine.make (Engine.default_config ~opt:Pipeline.all_on ()) program in
      let report =
        match recorder with
        | Some make -> Profile.with_recorder (make program) (fun () -> Engine.run engine)
        | None -> Engine.run engine
      in
      let rows = Telemetry.Counters.rows (Telemetry.counters (Engine.telemetry engine)) in
      (Buffer.contents buf, report, rows))

let parity_members =
  [ "richards"; "access-fannkuch"; "crypto"; "earley-boyer"; "deltablue"; "navier-stokes" ]

let guard_plan = Faults.make ~seed:1 [ (Faults.Exec_guard, Faults.Every 7) ]

(* The observed loop (a recorder installed) and the plain loop (nothing
   observes) are one executor: same output, same cycles, same counters —
   also when every seventh passing guard is forced to bail. *)
let test_loop_parity () =
  let row name rows = Option.value (List.assoc_opt name rows) ~default:0 in
  let observed program = Profile.Recorder.create ~program in
  let parity label run =
    let out_p, rep_p, rows_p = run None in
    let out_o, rep_o, rows_o = run (Some observed) in
    Alcotest.(check string) (label ^ ": output") out_p out_o;
    Alcotest.(check int) (label ^ ": native cycles") rep_p.Engine.native_cycles
      rep_o.Engine.native_cycles;
    Alcotest.(check int) (label ^ ": total cycles") rep_p.Engine.total_cycles
      rep_o.Engine.total_cycles;
    Alcotest.(check (list (pair string int))) (label ^ ": counters") rows_p rows_o;
    rows_p
  in
  List.iter
    (fun name ->
      let rows = parity name (fun recorder -> run_member ?recorder name) in
      Alcotest.(check bool) (name ^ ": compiles") true (row Telemetry.Key.compiles rows > 0);
      Alcotest.(check bool) (name ^ ": enters through OSR") true
        (row Telemetry.Key.osr_entries rows > 0);
      let rows =
        parity (name ^ " under faults") (fun recorder ->
            Faults.with_plan guard_plan (fun () -> run_member ?recorder name))
      in
      Alcotest.(check bool) (name ^ ": bails") true (row Telemetry.Key.bailouts rows > 0))
    parity_members

(* The chaos layer draws once per passing guard with a snapshot. Pinned
   figures: every seventh draw fires on crypto under the suite
   configuration. *)
let test_exec_guard_draws_pinned () =
  let fired = ref 0 in
  let out, _, rows =
    Faults.with_fired_hook
      (fun p -> if p = Faults.Exec_guard then incr fired)
      (fun () -> Faults.with_plan guard_plan (fun () -> run_member "crypto"))
  in
  let clean, _, _ = run_member "crypto" in
  Alcotest.(check string) "output unchanged" clean out;
  Alcotest.(check int) "exec_guard faults fired" 47 !fired;
  Alcotest.(check int) "bailouts" 47
    (Option.value (List.assoc_opt Telemetry.Key.bailouts rows) ~default:0)

let suites =
  [
    ( "lir",
      [
        Alcotest.test_case "allocation removes vregs" `Quick test_lowered_code_is_allocated;
        Alcotest.test_case "constants are immediates" `Quick
          test_constants_become_immediates;
        Alcotest.test_case "spills under pressure" `Quick
          test_regalloc_spills_under_pressure;
        Alcotest.test_case "specialized smaller and faster" `Quick
          test_specialized_code_smaller_and_faster;
      ] );
    ( "native",
      [
        Alcotest.test_case "arithmetic" `Quick test_exec_arithmetic;
        Alcotest.test_case "control flow" `Quick test_exec_control_flow;
        Alcotest.test_case "heap traffic" `Quick test_exec_heap_traffic;
        Alcotest.test_case "type barrier bails" `Quick test_exec_type_barrier_bails;
        Alcotest.test_case "bounds check bails with state" `Quick
          test_exec_bounds_check_bails_with_state;
        Alcotest.test_case "overflow bails" `Quick test_exec_overflow_bails;
        Alcotest.test_case "globals" `Quick test_exec_globals;
        Alcotest.test_case "bail rebuilds its snapshot" `Quick test_bail_rebuilds_snapshot;
        Alcotest.test_case "load rejects virtual registers" `Quick
          test_load_rejects_virtual_registers;
        Alcotest.test_case "snapshot-less guard fails at run" `Quick
          test_snapshotless_guard_fails_at_run;
        Alcotest.test_case "plain and observed loops agree" `Quick test_loop_parity;
        Alcotest.test_case "exec_guard draws pinned" `Quick test_exec_guard_draws_pinned;
        QCheck_alcotest.to_alcotest prop_native_matches_interp;
        QCheck_alcotest.to_alcotest prop_three_way_differential;
      ] );
  ]
