type request = {
  program : Bytecode.Program.t;
  func : Bytecode.Program.func;
  key : Policy.vkey;
  osr : Builder.osr_request option;
  arg_tags : Runtime.Value.tag option array;
  no_checked_int : bool;
  known_globals : int option array;
  opt : Pipeline.config;
  check : bool;
  fire_diag : bool;
  fire_verify : bool;
}

type outcome = {
  mir_charge : int;
  backend_charge : int;
  size : int;
  stats : Pipeline.run_stats option;
  warnings : Diag.t list;
  mir : Mir.func option;
  result : (Code.t, Diag.t) result;
}

let kind = function
  | Policy.Key_values (_, Some _) -> "selective"
  | Policy.Key_values (_, None) -> "values"
  | Policy.Key_tags _ -> "tags"
  | Policy.Key_generic -> "generic"

let specialized = function
  | Policy.Key_values _ -> true
  | Policy.Key_tags _ | Policy.Key_generic -> false

(* Every stage records what it reached before the next one may abort, so
   an aborted compile still reports the work it did: the optimizer's and
   the backend's cycles are paid as soon as they happen, which is what
   makes compile failures costly rather than free retries. *)
let compile r =
  let name = r.func.Bytecode.Program.name and fid = r.func.Bytecode.Program.fid in
  let spec_args, spec_mask, spec_tags =
    match r.key with
    | Policy.Key_values (args, mask) -> (Some args, mask, None)
    | Policy.Key_tags tags -> (None, None, Some tags)
    | Policy.Key_generic -> (None, None, None)
  in
  let warnings = ref [] and stats = ref None and optimized = ref None in
  let backend_charge = ref 0 and size = ref 0 in
  let result =
    try
      let mir =
        Builder.build ~program:r.program ~func:r.func ?spec_args ?spec_mask ?spec_tags
          ~arg_tags:r.arg_tags ?osr:r.osr ~no_checked_int:r.no_checked_int
          ~known_globals:r.known_globals ()
      in
      let spec_check stage =
        if r.check then
          List.iter
            (fun d ->
              if Diag.is_error d then raise (Diag.Failed d) else warnings := d :: !warnings)
            (Spec_check.check ~stage mir)
      in
      (* Baked constants are audited against the cached tuple on the fresh
         graph, where the builder's argument-materialization layout still
         holds; the guard/resume-point audit runs on the optimized graph
         the lowerer will consume. *)
      spec_check `Built;
      stats := Some (Pipeline.apply ~check:r.check ~program:r.program r.opt mir);
      if r.fire_diag then Diag.error ~layer:"fault" ~func:name ~fid "injected compile_diag fault";
      spec_check `Optimized;
      optimized := Some mir;
      let code, intervals = Regalloc.run (Lower.run mir) in
      backend_charge :=
        (Cost.compile_per_native_instr * Code.size code) + (Cost.compile_per_interval * intervals);
      size := Code.size code;
      (* Internal assert on the backend's output: catches allocation and
         snapshot bugs at their source instead of as a downstream
         miscomputation. A failure here aborts with the backend work
         already charged. *)
      Code_verify.run code;
      if r.fire_verify then Diag.error ~layer:"fault" ~func:name ~fid "injected code_verify fault";
      Ok code
    with Diag.Failed d -> Error d
  in
  {
    mir_charge =
      (match !stats with
      | Some s -> Cost.compile_per_mir_instr * s.Pipeline.mir_instrs_processed
      | None -> 0);
    backend_charge = !backend_charge;
    size = !size;
    stats = !stats;
    warnings = List.rev !warnings;
    mir = !optimized;
    result;
  }
