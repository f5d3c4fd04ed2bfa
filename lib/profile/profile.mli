(** Cycle-accounting profiler and lifecycle span tracer.

    Attribution rides the origin tags the IRs carry ({!Mir.origin} threaded
    into {!Code.t.origins} by lowering): the {!Recorder} charges every
    model cycle to the (function, bytecode pc, producing pass) that caused
    it, split by execution {!tier} and work {!category}. A recorder is
    installed with {!with_recorder}; the engine reads it once at the entry
    of each run and passes its payloads to the executors as their
    observers ([Exec.callbacks] [charge]/[tick], [Interp.hooks] [tick]).
    The {!Tracer} turns engine lifecycle phases into {!Telemetry.span}s on
    the model-cycle clock.

    Everything here is observation-only: no charge is altered, and with no
    recorder installed every observer is [None], so a profiled-off run is
    byte-identical to an unprofiled one. By construction the recorder's
    {!Recorder.total_cycles} equals the engine report's [total_cycles]
    exactly. *)

(** Execution tier a cycle was spent in. *)
type tier =
  | T_interp  (** bytecode interpretation *)
  | T_native_gen  (** generic (unspecialized) native code *)
  | T_native_spec  (** value-specialized native code *)
  | T_native_widened
      (** tag-specialized native code: a widened polyvariant version *)
  | T_compile  (** the JIT itself: pipeline + codegen *)

val tier_to_string : tier -> string

(** Kind of work a cycle paid for — the guard/ALU/memory split the paper's
    attribution argument is about. *)
type category =
  | C_guard  (** type barriers, array checks, bounds checks *)
  | C_alu  (** arithmetic, compares, moves, coercions *)
  | C_mem  (** loads/stores: elements, properties, globals, cells *)
  | C_call  (** call dispatch and its overhead *)
  | C_alloc  (** arrays, objects, closures *)
  | C_control  (** jumps, branches, returns, loop heads *)
  | C_compile  (** compile-time work ({!T_compile} only) *)

val category_to_string : category -> string
val category_of_op : Code.op -> category
val category_of_ninstr : Code.ninstr -> category
val category_of_bytecode : Bytecode.Instr.t -> category

type key = {
  k_fid : int;
  k_pc : int;  (** bytecode pc; [-1] for charges with no bytecode site *)
  k_pass : string;  (** producing stage: ["build"], a pass name, ["bytecode"]… *)
  k_tier : tier;
  k_cat : category;
  k_ver : int;
      (** version-cache id of the charging binary under the polyvariant
          policy; [0] = unversioned (paper policy, interpreter, compile) *)
}
(** One attribution cell's identity. *)

type row = { r_key : key; r_cycles : int; r_count : int }

(** The cycle-attribution accumulator. One per profiled run; install with
    {!with_recorder}. *)
module Recorder : sig
  type t

  val create : program:Bytecode.Program.t -> t

  val exec_charge : t -> Code.t -> int -> int -> unit
  (** The native [charge] observer ([Exec.callbacks]): classifies a
      native charge via [code.origins.(pc)] and the opcode. *)

  val exec_tick : t -> Code.t -> int -> unit
  (** The native [tick] observer ([Exec.callbacks]): tallies one
      executed instruction and its {!Cost.instr} under its opcode, for
      {!op_table}. *)

  val interp_tick : t -> int -> int -> unit
  (** The interpreter [tick] observer ([Interp.hooks]): one
      [Cost.interp_per_instr] charge per interpreted instruction. *)

  val note_compile : t -> fid:int -> stage:string -> int -> unit
  (** Record a compile-stage charge ([stage] is ["mir"] or ["codegen"]),
      reported by the engine adjacent to each [compile_cycles] bump —
      including aborted compiles, so attribution stays exact under
      faults. *)

  val total_cycles : t -> int
  (** Sum over all cells — equals the engine report's [total_cycles] when
      the recorder covered the whole run. *)

  val rows : t -> row list
  (** Every cell, key-sorted (deterministic). *)

  val tier_cycles : t -> tier -> int

  val op_rows : t -> (string * int * int) list
  (** The per-opcode native execution profile: [(opcode, executed,
      cycles)] by descending cycles. [cycles] sums instruction costs only
      (no call overheads or bailout penalties); empty when no native code
      ran. *)

  type func_summary = {
    fs_fid : int;
    fs_name : string;
    fs_total : int;
    fs_interp : int;
    fs_native_gen : int;
    fs_native_spec : int;
    fs_native_widened : int;
    fs_compile : int;
    fs_guard : int;  (** category fields cover the native tiers only *)
    fs_alu : int;
    fs_mem : int;
    fs_call : int;
    fs_alloc : int;
    fs_control : int;
  }

  val by_function : t -> func_summary list
  (** Per-function rollup, descending total (ties by fid). *)

  val native_category_cycles : t -> (category * int) list
  (** Native-tier cycles per category across all functions — the
      attribution figure's input. *)

  val folded : t -> string
  (** Folded-stack flamegraph text: ["fname;tier;pass;category cycles"]
      lines, sorted (deterministic across job counts). *)

  val table : ?top:int -> t -> string
  (** The [--profile] report: top-N functions by total cycles with
      per-tier columns and the native guard/alu/mem percentage split. *)

  val op_table : t -> string
  (** {!op_rows} as the [--profile] "native execution profile" table. *)
end

val current_recorder : unit -> Recorder.t option
(** This domain's installed recorder, if any. *)

val with_recorder : Recorder.t -> (unit -> 'a) -> 'a
(** Run [f] with [r] as this domain's recorder, restoring the previous one
    afterwards (exception-safe). Every engine run started inside reads it
    once at entry and records into it for that whole run; a run started
    outside records nothing, even on an engine that was profiled before. *)

(** Begin/end span bookkeeping over the model-cycle clock. The engine opens
    a span entering a lifecycle phase and closes it when the phase ends;
    closing emits a completed {!Telemetry.span}. Ends must balance begins —
    {!Tracer.end_span} on an empty stack raises, which is exactly the
    well-formedness property the tests lean on. *)
module Tracer : sig
  type t

  val create : emit:(Telemetry.span -> unit) -> t
  val depth : t -> int
  (** Currently open spans. *)

  val begin_span :
    t -> name:string -> cat:string -> fid:int -> fname:string -> now:int -> unit

  val end_span : ?args:(string * string) list -> t -> now:int -> unit
  (** Close the innermost open span, emitting it with
      [dur = now - start]. @raise Invalid_argument when no span is open. *)

  val complete :
    ?args:(string * string) list ->
    t ->
    name:string ->
    cat:string ->
    fid:int ->
    fname:string ->
    start:int ->
    dur:int ->
    unit
  (** Emit a retroactive span without touching the stack (e.g. the bailout
      penalty, known only after it was charged); its depth is the current
      stack depth. *)

  val flow :
    ?args:(string * string) list ->
    ?trace:Telemetry.trace_ctx ->
    t ->
    phase:[ `Start | `Finish ] ->
    id:int ->
    name:string ->
    cat:string ->
    fid:int ->
    fname:string ->
    now:int ->
    unit
  (** Emit one side of a Perfetto flow stitch ([ph:"s"]/[ph:"f"] sharing
      [id]). Spans and flows stamp the current {!Telemetry.trace_ctx}
      automatically; [trace] overrides it on the finish side so a
      background compile's install is attributed back to the request that
      enqueued it, whichever request harvests it. *)

  val emitted : t -> int
  (** Spans emitted so far. *)
end
