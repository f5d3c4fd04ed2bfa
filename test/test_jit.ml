(* The compile door in isolation: [Jit.compile] is a pure function of its
   request — no hook, telemetry sink or profile recorder observes it, the
   same request compiles to the same result, and an aborted request still
   reports the work it did. *)

open Runtime

let program =
  let m =
    List.find
      (fun (m : Suite.member) -> m.Suite.m_name = "access-fannkuch")
      (Option.get (Suites.find "SunSpider 1.0")).Suite.members
  in
  Bytecode.Compile.program_of_source m.Suite.m_source

(* One generic request per function, audited as a checked build would. *)
let requests ?(fire_verify = false) () =
  Array.to_list
    (Array.map
       (fun (func : Bytecode.Program.func) ->
         {
           Jit.program;
           func;
           key = Policy.Key_generic;
           osr = None;
           arg_tags = Array.make func.Bytecode.Program.arity None;
           no_checked_int = false;
           known_globals = [||];
           opt = Pipeline.all_on;
           check = true;
           fire_diag = false;
           fire_verify;
         })
       program.Bytecode.Program.funcs)

(* Every observer the engine feeds, installed at once; [f] runs under them
   and the returned thunk counts what they saw. *)
let observed f =
  let hooks = ref 0 in
  let ring = Telemetry.Ring.create 4096 in
  let recorder = Profile.Recorder.create ~program in
  let result =
    Pipeline.with_checks true (fun () ->
        Telemetry.with_default_sinks [ Telemetry.Ring.sink ring ] (fun () ->
            Profile.with_recorder recorder (fun () ->
                Engine.with_mir_hook
                  (fun _ -> incr hooks)
                  (fun () ->
                    Engine.with_diag_warn_hook
                      (fun _ -> incr hooks)
                      (fun () -> Engine.with_diag_abort_hook (fun _ -> incr hooks) f)))))
  in
  (result, !hooks, Telemetry.Ring.length ring, Profile.Recorder.total_cycles recorder)

let test_door_is_unobserved () =
  let outcomes, hooks, events, profiled =
    observed (fun () -> List.map Jit.compile (requests ()))
  in
  Alcotest.(check bool) "compiled" true
    (List.for_all (fun (o : Jit.outcome) -> Result.is_ok o.Jit.result) outcomes);
  Alcotest.(check int) "no hook fired" 0 hooks;
  Alcotest.(check int) "no event emitted" 0 events;
  Alcotest.(check int) "no profile note" 0 profiled;
  (* The same observers do see an engine run compile that program. *)
  let _, hooks, events, profiled =
    observed (fun () ->
        Builtins.with_print_hook ignore (fun () ->
            Engine.run (Engine.make (Engine.default_config ~opt:Pipeline.all_on ()) program)))
  in
  Alcotest.(check bool) "engine hooks fire" true (hooks > 0);
  Alcotest.(check bool) "engine events flow" true (events > 0);
  Alcotest.(check bool) "engine compiles are profiled" true (profiled > 0)

let test_door_is_deterministic () =
  List.iter
    (fun r ->
      let a = Jit.compile r and b = Jit.compile r in
      let name = r.Jit.func.Bytecode.Program.name in
      let size (o : Jit.outcome) = Code.size (Result.get_ok o.Jit.result) in
      Alcotest.(check int) (name ^ " code size") (size a) (size b);
      Alcotest.(check int) (name ^ " mir charge") a.Jit.mir_charge b.Jit.mir_charge;
      Alcotest.(check int) (name ^ " backend charge") a.Jit.backend_charge b.Jit.backend_charge;
      Alcotest.(check bool) (name ^ " pass stats") true (a.Jit.stats = b.Jit.stats))
    (requests ())

let test_verify_abort_reports_its_work () =
  let clean = List.map Jit.compile (requests ()) in
  let aborted = List.map Jit.compile (requests ~fire_verify:true ()) in
  List.iter2
    (fun (c : Jit.outcome) (a : Jit.outcome) ->
      (match a.Jit.result with
      | Error d ->
        Alcotest.(check string) "the injected fault" "injected code_verify fault" d.Diag.message
      | Ok _ -> Alcotest.fail "fire_verify must abort");
      Alcotest.(check bool) "backend charged" true (a.Jit.backend_charge > 0);
      Alcotest.(check int) "backend charge as clean" c.Jit.backend_charge a.Jit.backend_charge;
      Alcotest.(check int) "warnings as clean" (List.length c.Jit.warnings)
        (List.length a.Jit.warnings);
      Alcotest.(check bool) "optimized graph kept" true (a.Jit.mir <> None))
    clean aborted;
  Alcotest.(check bool) "some abort carried warnings" true
    (List.exists (fun (a : Jit.outcome) -> a.Jit.warnings <> []) aborted)

let suites =
  [
    ( "jit.door",
      [
        Alcotest.test_case "unobserved" `Quick test_door_is_unobserved;
        Alcotest.test_case "deterministic" `Quick test_door_is_deterministic;
        Alcotest.test_case "verify abort reports its work" `Quick
          test_verify_abort_reports_its_work;
      ] );
  ]
