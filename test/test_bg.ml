(* Background-compilation tests: the queue's deterministic completion
   model (fixed-width FIFO service, exact ready cycles), the engine integration
   (hot-call sites never charge synchronous compile cycles; artifacts
   land at harvest; loop-edge OSR into finished binaries; stale-snapshot
   refusal), the re-specialization drift loop (supersede-at-install), the
   bg fault points, degrade-mode drain/suppression, and --jobs
   byte-identity of the whole report. *)

open Runtime

let run ?(cfg = Engine.default_config ~opt:Pipeline.all_on ()) ?(sinks = []) src =
  let buf = Buffer.create 64 in
  Builtins.with_print_hook
    (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
    (fun () ->
      let engine = Engine.make cfg (Bytecode.Compile.program_of_source src) in
      List.iter (Telemetry.attach (Engine.telemetry engine)) sinks;
      let report = Engine.run engine in
      (engine, report, Buffer.contents buf))

let bg_cfg ?policy ?(depth = 8) () =
  Engine.default_config ~opt:Pipeline.all_on ?policy ~bg_compile:true ~bg_queue_depth:depth ()

let total engine name = Telemetry.Counters.total (Telemetry.counters (Engine.telemetry engine)) name

let fn report name =
  List.find (fun (f : Engine.func_report) -> f.Engine.fr_name = name) report.Engine.functions

(* Hot by calls only: 30 toplevel iterations stay under the 40-edge OSR
   threshold, so the one compile in either mode is the call-path compile
   of [f] with the same pipeline — the charges must agree to the cycle. *)
let call_hot_src =
  "function f(x) { return (x * 3 + 1) | 0; }\n\
   var t = 0;\n\
   for (var i = 0; i < 30; i++) t = (t + f(5)) | 0;\n\
   print(t);"

(* Hot loops on both tiers: the toplevel loop (globals only) and a
   local-counter loop inside [work]. Queued OSR compiles keep their
   locals as live loads ([osr_bake_locals] off), so the counter having
   advanced by the ready cycle is the expected case and both loops
   transfer into their finished binaries mid-flight. *)
let loop_src =
  "function work(n, k) {\n\
  \  var s = 0;\n\
  \  for (var i = 0; i < n; i = i + 1) { s = s + i * k; }\n\
  \  return s;\n\
   }\n\
   var total = 0;\n\
   for (var j = 0; j < 60; j = j + 1) { total = total + work(200, 3); }\n\
   print(total);"

(* A queued value key must be a copy of the call's arguments: the call
   that enqueues goes on interpreting with its own argument array, and
   [Set_arg] rewrote a shared one before the compile read it — 200 calls
   of [f(5)] then compiled [f(6)], missed, deoptimized and blacklisted. *)
let test_queued_key_is_a_snapshot () =
  let engine, report, out =
    run ~cfg:(bg_cfg ())
      "function f(x) { x = x + 1; return x; }\n\
       var t = 0;\n\
       for (var i = 0; i < 200; i++) t = t + f(5);\n\
       print(t);"
  in
  Alcotest.(check string) "output" "1200\n" out;
  let f = fn report "f" in
  Alcotest.(check int) "one compile" 1 f.Engine.fr_compiles;
  Alcotest.(check bool) "specialized" true f.Engine.fr_was_specialized;
  Alcotest.(check bool) "never deoptimized" false f.Engine.fr_deoptimized;
  let c = Telemetry.counters (Engine.telemetry engine) in
  let get key = Telemetry.Counters.get c ~fid:f.Engine.fr_fid key in
  Alcotest.(check int) "no cache miss" 0 (get Telemetry.Key.cache_misses);
  Alcotest.(check int) "no blacklist" 0 (get Telemetry.Key.blacklists);
  Alcotest.(check int) "no argument-set change" 0 (get Telemetry.Key.arg_set_changes)

(* --- the queue's completion model (unit) ----------------------------- *)

let test_queue_model () =
  Alcotest.(check int) "model width is a fixed constant" 4 Bgcompile.service_width;
  let q = Bgcompile.create ~depth:5 in
  (* Four requests at the same cycle: one per virtual server, none queues. *)
  let costs = [| 50; 30; 40; 20 |] in
  let entries =
    Array.mapi
      (fun i c ->
        Result.get_ok (Bgcompile.enqueue q ~fid:i ~now:100 ~cost:c (string_of_int i)))
      costs
  in
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "server %d starts at enqueue" i)
        (100 + c) entries.(i).Bgcompile.e_ready)
    costs;
  (* A fifth request finds the whole crew busy and queues behind the
     earliest-free server (fid 3's, free at 120). *)
  let e5 = Result.get_ok (Bgcompile.enqueue q ~fid:4 ~now:110 ~cost:30 "4") in
  Alcotest.(check int) "FIFO behind the earliest-free server" 150 e5.Bgcompile.e_ready;
  Alcotest.(check int) "five in flight" 5 (Bgcompile.length q);
  (match Bgcompile.enqueue q ~fid:5 ~now:110 ~cost:1 "x" with
  | Error `Overflow -> ()
  | Ok _ -> Alcotest.fail "expected overflow at depth 5");
  (* Not ready yet for fid 0 at cycle 149; ready at 150. *)
  Alcotest.(check int) "not ready early" 0 (List.length (Bgcompile.take_ready q ~fid:0 ~now:149));
  (match Bgcompile.take_ready q ~fid:0 ~now:150 with
  | [ e ] -> Alcotest.(check string) "payload" "0" e.Bgcompile.e_payload
  | l -> Alcotest.fail (Printf.sprintf "expected 1 ready, got %d" (List.length l)));
  (* take_ready is per-fid: the others are untouched. An enqueue after
     the crew went idle starts fresh, and drain returns everything in
     enqueue order. *)
  Alcotest.(check int) "four left" 4 (Bgcompile.length q);
  let e6 = Result.get_ok (Bgcompile.enqueue q ~fid:6 ~now:500 ~cost:10 "5") in
  Alcotest.(check int) "idle again" 510 e6.Bgcompile.e_ready;
  let drained = Bgcompile.drain q in
  Alcotest.(check (list string)) "drain in enqueue order" [ "1"; "2"; "3"; "4"; "5" ]
    (List.map (fun e -> e.Bgcompile.e_payload) drained);
  Alcotest.(check int) "empty after drain" 0 (Bgcompile.length q)

let test_queue_depth_clamped () =
  let q = Bgcompile.create ~depth:0 in
  Alcotest.(check int) "depth clamps to 1" 1 (Bgcompile.depth q)

(* --- the engine's two clocks ----------------------------------------- *)

let test_bg_never_charges_the_model_clock () =
  let _, sync_report, sync_out = run call_hot_src in
  let _, bg_report, bg_out = run ~cfg:(bg_cfg ()) call_hot_src in
  Alcotest.(check string) "same program output" sync_out bg_out;
  Alcotest.(check int) "no synchronous compile cycles" 0 bg_report.Engine.compile_cycles;
  (* Same function, same pipeline, same policy decision — the modeled
     compile work is identical, it just moved off the requester's clock. *)
  Alcotest.(check int) "off-clock charge equals the sync charge"
    sync_report.Engine.compile_cycles bg_report.Engine.bg_compile_cycles;
  Alcotest.(check bool) "the function did compile" true
    ((fn bg_report "f").Engine.fr_compiles >= 1);
  Alcotest.(check int) "sync mode charges nothing off-clock" 0
    sync_report.Engine.bg_compile_cycles

let test_bg_off_is_default () =
  let cfg = Engine.default_config () in
  Alcotest.(check bool) "bg off by default" false cfg.Engine.bg_compile;
  let engine, report, _ = run call_hot_src in
  Alcotest.(check int) "no bg cycles" 0 report.Engine.bg_compile_cycles;
  Alcotest.(check int) "no bg counters" 0 (total engine Telemetry.Key.bg_queued);
  Alcotest.(check int) "nothing in flight" 0 (Engine.bg_in_flight engine)

let test_enqueue_and_ready_events () =
  let ring = Telemetry.Ring.create 4096 in
  let engine, _, _ = run ~cfg:(bg_cfg ()) ~sinks:[ Telemetry.Ring.sink ring ] call_hot_src in
  let events k =
    List.filter (fun e -> Telemetry.event_kind e = k) (Telemetry.Ring.contents ring)
  in
  let enqueues = events "compile_enqueue" and readies = events "compile_ready" in
  Alcotest.(check bool) "at least one enqueue" true (List.length enqueues >= 1);
  Alcotest.(check int) "every enqueue eventually installed"
    (List.length enqueues) (List.length readies);
  Alcotest.(check int) "counters agree with the events"
    (List.length readies) (total engine Telemetry.Key.bg_installed);
  Alcotest.(check int) "queue fully drained by the end" 0 (Engine.bg_in_flight engine)

(* --- loop-edge OSR into a finished binary ---------------------------- *)

let test_osr_entry_and_stale_refusal () =
  let engine, report, out = run ~cfg:(bg_cfg ()) loop_src in
  Alcotest.(check string) "result" "3582000\n" out;
  (* Both hot loops — the toplevel one and work's local-counter one —
     transfer into their binaries: locals are live loads on a queued OSR
     path, so the advanced counter matches by construction. *)
  Alcotest.(check int) "both in-flight loops entered their binaries" 2
    (total engine Telemetry.Key.bg_osr_entries);
  Alcotest.(check int) "nothing was stale" 0 (total engine Telemetry.Key.bg_osr_stale);
  Alcotest.(check int) "no synchronous compile cycles" 0 report.Engine.compile_cycles;
  Alcotest.(check bool) "work compiled" true ((fn report "work").Engine.fr_compiles >= 1);
  (* Staleness that remains: a specialized compile bakes the *argument*
     values it saw at the snapshot through the body, so a loop that
     reassigns its own parameter has drifted past the burned-in value by
     the ready cycle and entry must be refused — while the artifact still
     installs and serves later calls through its guarded normal entry. *)
  let churn_src =
    "function churn(n, k) { var s = 0;\n\
    \  for (var i = 0; i < n; i = i + 1) { k = k + 1; s = s + k; }\n\
    \  return s; }\n\
     var total = 0;\n\
     for (var j = 0; j < 3; j = j + 1) { total = total + churn(300, 1); }\n\
     print(total);"
  in
  let engine, report, out = run ~cfg:(bg_cfg ()) churn_src in
  Alcotest.(check string) "churn result" "136350\n" out;
  Alcotest.(check bool) "the drifted baked arg was refused" true
    (total engine Telemetry.Key.bg_osr_stale >= 1);
  Alcotest.(check bool) "the refused artifact still installed" true
    (total engine Telemetry.Key.bg_installed >= 1);
  Alcotest.(check bool) "churn compiled anyway" true
    ((fn report "churn").Engine.fr_compiles >= 1)

let test_osr_entry_events_match_counter () =
  let ring = Telemetry.Ring.create 4096 in
  let engine, _, _ = run ~cfg:(bg_cfg ()) ~sinks:[ Telemetry.Ring.sink ring ] loop_src in
  let entries =
    List.filter (fun e -> Telemetry.event_kind e = "osr_entry") (Telemetry.Ring.contents ring)
  in
  Alcotest.(check int) "one Osr_entry event per counted entry"
    (total engine Telemetry.Key.bg_osr_entries)
    (List.length entries)

(* --- overflow and per-function dedupe -------------------------------- *)

let test_queue_overflow_drops () =
  (* Depth 1 with several functions going hot at once: at most one can be
     in flight, so the rest are dropped and counted. *)
  let src =
    "function a(x) { return (x + 1) | 0; }\n\
     function b(x) { return (x + 2) | 0; }\n\
     function c(x) { return (x + 3) | 0; }\n\
     var t = 0;\n\
     for (var i = 0; i < 40; i++) t = (t + a(1) + b(2) + c(3)) | 0;\n\
     print(t);"
  in
  let engine, report, _ = run ~cfg:(bg_cfg ~depth:1 ()) src in
  Alcotest.(check bool) "overflow counted" true (total engine Telemetry.Key.bg_overflow >= 1);
  Alcotest.(check int) "still no synchronous compile cycles" 0 report.Engine.compile_cycles

let test_one_in_flight_per_function () =
  (* A hot function keeps getting called while its request is queued; the
     dedupe admits exactly one entry, so bg.queued counts distinct
     requests, not hot calls. *)
  let engine, _, _ = run ~cfg:(bg_cfg ()) call_hot_src in
  let queued = total engine Telemetry.Key.bg_queued in
  let installed = total engine Telemetry.Key.bg_installed in
  Alcotest.(check int) "every queued request installs exactly once" queued installed

(* --- the re-specialization drift loop -------------------------------- *)

let test_supersede_on_operand_drift () =
  (* Polyvariant: a caller-anticipated values version first (the hot-call
     tier is otherwise a generic catch-all, which never misses), then
     same-tag drift — the miss widens values→tags through the queue; the
     victim keeps serving until its replacement lands, then is detached.
     The [use] toggle keeps f cold until c's binary (and its f(5) call-
     site fact) has landed. *)
  let src =
    "function f(x) { return (x + 1) | 0; }\n\
     var use = 0;\n\
     function c() { if (use == 1) { return f(5); } return 0; }\n\
     var t = 0;\n\
     for (var i = 0; i < 20; i++) t = (t + c()) | 0;\n\
     use = 1;\n\
     for (var i = 0; i < 20; i++) t = (t + c()) | 0;\n\
     for (var i = 0; i < 80; i++) t = (t + f(9)) | 0;\n\
     print(t);"
  in
  let engine, report, out = run ~cfg:(bg_cfg ~policy:Policy.Polyvariant ()) src in
  Alcotest.(check string) "result" "920\n" out;
  Alcotest.(check bool) "a version was superseded" true
    (total engine Telemetry.Key.bg_superseded >= 1);
  Alcotest.(check bool) "the widen was counted" true
    (total engine Telemetry.Key.versions_widened >= 1);
  Alcotest.(check int) "drift never stalled the requester" 0 report.Engine.compile_cycles

(* --- fault points ----------------------------------------------------- *)

let test_bg_enqueue_fault_drops_request () =
  let plan = Faults.make ~seed:3 [ (Faults.Bg_enqueue, Faults.Nth 1) ] in
  let fired = ref [] in
  let engine, report, out =
    Faults.with_fired_hook
      (fun p -> fired := p :: !fired)
      (fun () -> Faults.with_plan plan (fun () -> run ~cfg:(bg_cfg ()) call_hot_src))
  in
  Alcotest.(check bool) "the fault fired" true (List.mem Faults.Bg_enqueue !fired);
  Alcotest.(check bool) "the drop was counted" true
    (total engine Telemetry.Key.bg_cancelled >= 1);
  (* The function stays interpreted until a later hot call retries; the
     program output is unaffected either way. *)
  let _, _, sync_out = run call_hot_src in
  ignore report;
  Alcotest.(check string) "output unaffected" sync_out out

let test_bg_install_fault_reenqueues_with_backoff () =
  let plan = Faults.make ~seed:3 [ (Faults.Bg_install, Faults.Nth 1) ] in
  let ring = Telemetry.Ring.create 4096 in
  let fired = ref [] in
  let engine, _, out =
    Faults.with_fired_hook
      (fun p -> fired := p :: !fired)
      (fun () ->
        Faults.with_plan plan (fun () ->
            run ~cfg:(bg_cfg ()) ~sinks:[ Telemetry.Ring.sink ring ] call_hot_src))
  in
  Alcotest.(check bool) "the install fault fired" true (List.mem Faults.Bg_install !fired);
  (* The dropped artifact re-enqueued (a second bg.queued) at doubled
     modeled cost, and the redo landed. *)
  Alcotest.(check bool) "re-enqueued" true (total engine Telemetry.Key.bg_queued >= 2);
  Alcotest.(check bool) "the redo installed" true
    (total engine Telemetry.Key.bg_installed >= 1);
  let cancels =
    List.filter
      (fun e -> Telemetry.event_kind e = "compile_cancel")
      (Telemetry.Ring.contents ring)
  in
  Alcotest.(check bool) "the drop emitted Compile_cancel" true (List.length cancels >= 1);
  let _, _, sync_out = run call_hot_src in
  Alcotest.(check string) "output unaffected" sync_out out

(* An aborted compile is landed the same way in both modes: its spec-check
   warnings and its optimized graph reach the hooks whether the compile ran
   on the model clock or through the queue. The verify fault lands after
   the backend, so the aborted graph passed every audit first. *)
let test_code_verify_abort_delivers_like_sync () =
  let src =
    match
      List.find_opt
        (fun (m : Suite.member) -> m.Suite.m_name = "access-fannkuch")
        (Option.get (Suites.find "SunSpider 1.0")).Suite.members
    with
    | Some m -> m.Suite.m_source
    | None -> Alcotest.fail "access-fannkuch is missing"
  in
  let observe cfg =
    let warnings = ref 0 and graphs = ref 0 in
    let plan = Faults.make ~seed:3 [ (Faults.Code_verify, Faults.Nth 1) ] in
    let engine, _, out =
      Pipeline.with_checks true (fun () ->
          Engine.with_diag_warn_hook
            (fun _ -> incr warnings)
            (fun () ->
              Engine.with_mir_hook
                (fun _ -> incr graphs)
                (fun () -> Faults.with_plan plan (fun () -> run ~cfg src))))
    in
    (engine, !warnings, !graphs, out)
  in
  let sync_engine, sync_warnings, sync_graphs, sync_out =
    observe (Engine.default_config ~opt:Pipeline.all_on ())
  in
  let bg_engine, bg_warnings, bg_graphs, bg_out = observe (bg_cfg ()) in
  Alcotest.(check string) "same output" sync_out bg_out;
  Alcotest.(check int) "sync aborted once" 1
    (total sync_engine Telemetry.Key.compiles_aborted);
  Alcotest.(check int) "bg aborted once" 1 (total bg_engine Telemetry.Key.compiles_aborted);
  Alcotest.(check bool) "the abort produced warnings" true (sync_warnings > 0);
  Alcotest.(check int) "warnings delivered as sync does" sync_warnings bg_warnings;
  Alcotest.(check int) "MIR-hook calls as sync does" sync_graphs bg_graphs

(* --- degrade drains and suppresses ----------------------------------- *)

let test_degrade_suppresses_the_queue () =
  let buf = Buffer.create 64 in
  let engine, report =
    Builtins.with_print_hook
      (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
      (fun () ->
        let engine =
          Engine.make (bg_cfg ()) (Bytecode.Compile.program_of_source call_hot_src)
        in
        Engine.set_degrade engine true;
        let report = Engine.run engine in
        (engine, report))
  in
  (* Degrade falls back to the synchronous overload semantics: nothing is
     queued and compiles (if any) charge the model clock as before. *)
  Alcotest.(check int) "nothing queued under degrade" 0 (total engine Telemetry.Key.bg_queued);
  Alcotest.(check int) "no off-clock work" 0 report.Engine.bg_compile_cycles;
  Alcotest.(check bool) "the degraded compile was synchronous" true
    (report.Engine.compile_cycles > 0)

let test_degrade_transition_drains_in_flight () =
  (* Make a function hot at the very tail so its request is still in
     flight when the program ends; entering degrade must cancel it. *)
  let src =
    "function f(x) { return (x + 1) | 0; }\n\
     var t = 0;\n\
     for (var i = 0; i < 11; i++) t = (t + f(4)) | 0;\n\
     print(t);"
  in
  let engine, _, _ = run ~cfg:(bg_cfg ()) src in
  Alcotest.(check int) "one request still in flight" 1 (Engine.bg_in_flight engine);
  Engine.set_degrade engine true;
  Alcotest.(check int) "drained on the transition" 0 (Engine.bg_in_flight engine);
  Alcotest.(check int) "the cancel was counted" 1 (total engine Telemetry.Key.bg_cancelled);
  (* Explicit drain (the recycle path) on an empty queue is a no-op. *)
  Alcotest.(check int) "drain_bg after drain" 0 (Engine.drain_bg engine)

(* --- --jobs byte-identity -------------------------------------------- *)

let report_fingerprint (r : Engine.report) =
  ( Value.to_display_string r.Engine.result,
    ( r.Engine.interp_cycles,
      r.Engine.native_cycles,
      r.Engine.compile_cycles,
      r.Engine.bg_compile_cycles,
      r.Engine.total_cycles ),
    r.Engine.bytecode_instrs,
    List.map
      (fun (f : Engine.func_report) -> (f.Engine.fr_name, f.Engine.fr_compiles, f.Engine.fr_sizes))
      r.Engine.functions )

let with_jobs n f =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) f

let test_jobs_determinism () =
  let counters_of engine =
    Telemetry.Counters.rows (Telemetry.counters (Engine.telemetry engine))
  in
  let at_jobs n =
    with_jobs n (fun () ->
        let engine, report, out = run ~cfg:(bg_cfg ~policy:Policy.Polyvariant ()) loop_src in
        (out, report_fingerprint report, counters_of engine))
  in
  let out1, fp1, c1 = at_jobs 1 in
  let out4, fp4, c4 = at_jobs 4 in
  Alcotest.(check string) "output identical across --jobs" out1 out4;
  Alcotest.(check bool) "report identical across --jobs" true (fp1 = fp4);
  Alcotest.(check (list (pair string int))) "every counter identical across --jobs" c1 c4

let suites =
  [
    ( "bgcompile",
      [
        Alcotest.test_case "queue completion model" `Quick test_queue_model;
        Alcotest.test_case "depth clamped" `Quick test_queue_depth_clamped;
        Alcotest.test_case "bg never charges the model clock" `Quick
          test_bg_never_charges_the_model_clock;
        Alcotest.test_case "bg off is the default" `Quick test_bg_off_is_default;
        Alcotest.test_case "enqueue/ready events" `Quick test_enqueue_and_ready_events;
        Alcotest.test_case "OSR entry and stale refusal" `Quick
          test_osr_entry_and_stale_refusal;
        Alcotest.test_case "OSR events match counter" `Quick
          test_osr_entry_events_match_counter;
        Alcotest.test_case "queue overflow drops" `Quick test_queue_overflow_drops;
        Alcotest.test_case "one in flight per function" `Quick
          test_one_in_flight_per_function;
        Alcotest.test_case "supersede on operand drift" `Quick
          test_supersede_on_operand_drift;
        Alcotest.test_case "bg_enqueue fault drops" `Quick test_bg_enqueue_fault_drops_request;
        Alcotest.test_case "code_verify abort lands like sync" `Quick
          test_code_verify_abort_delivers_like_sync;
        Alcotest.test_case "bg_install fault re-enqueues" `Quick
          test_bg_install_fault_reenqueues_with_backoff;
        Alcotest.test_case "degrade suppresses the queue" `Quick
          test_degrade_suppresses_the_queue;
        Alcotest.test_case "degrade transition drains" `Quick
          test_degrade_transition_drains_in_flight;
        Alcotest.test_case "--jobs byte-identity" `Quick test_jobs_determinism;
        Alcotest.test_case "queued value key is a snapshot (regression)" `Quick
          test_queued_key_is_a_snapshot;
      ] );
  ]
