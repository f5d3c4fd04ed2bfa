(** The compile door: the one function that turns a compile request into
    executable code.

    [compile] runs build → {!Spec_check} [`Built] → {!Pipeline.apply} →
    {!Spec_check} [`Optimized] → {!Lower} → {!Regalloc} → {!Code_verify},
    the same sequence for the synchronous barrier and the background queue.
    It is pure with respect to the engine: it reads no domain-local state,
    emits no telemetry, notes no profile charge and touches no clock. Every
    input arrives in the {!request} (fault decisions included, drawn by the
    caller) and every observation leaves in the {!outcome}, so the engine
    books success and abort through one landing step whichever mode ran the
    compile, and a background request can run on any pool domain. *)

type request = {
  program : Bytecode.Program.t;
  func : Bytecode.Program.func;
  key : Policy.vkey;  (** what to burn in; the cache key of the result *)
  osr : Builder.osr_request option;  (** loop-head entry, if OSR-flavored *)
  arg_tags : Runtime.Value.tag option array;  (** stable observed tag per argument *)
  no_checked_int : bool;  (** compile without checked int32 arithmetic *)
  known_globals : int option array;
  opt : Pipeline.config;  (** the pipeline schedule, tiering already applied *)
  check : bool;  (** per-pass verification and the spec-check audits *)
  fire_diag : bool;  (** injected fault at the post-pipeline barrier *)
  fire_verify : bool;  (** injected fault at the LIR verifier *)
}

type outcome = {
  mir_charge : int;  (** optimizer cycles; 0 until the pipeline ran *)
  backend_charge : int;  (** lowering and allocation cycles; 0 until they ran *)
  size : int;  (** native instructions allocated; 0 until the backend ran *)
  stats : Pipeline.run_stats option;  (** once the pipeline ran *)
  warnings : Diag.t list;  (** spec-check warnings, in audit order *)
  mir : Mir.func option;  (** the optimized graph, once [`Optimized] passed *)
  result : (Code.t, Diag.t) result;  (** the verified code, or the abort *)
}

val compile : request -> outcome
(** Run the request. Never raises {!Diag.Failed}: an abort returns
    everything reached before it, charges included. *)

val kind : Policy.vkey -> string
(** The request label: ["selective"], ["values"], ["tags"] or
    ["generic"]. *)

val specialized : Policy.vkey -> bool
(** Are argument values burned in ({!Policy.Key_values})? *)
