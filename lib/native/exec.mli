(** The native-code executor: a register machine over {!Code.t} with the
    cycle accounting of {!Cost}, direct-threaded. {!load} turns a binary
    into one step closure per instruction once, when the engine installs
    it; {!run} then only calls steps.

    Executing compiled code either finishes with the function's return
    value or bails out: a failing guard evaluates its snapshot into the
    interpreter-frame state (bytecode pc, argument/local/stack values) that
    the engine uses to resume interpretation — the deoptimization mechanism
    of the paper's Section 3. *)

type activation = {
  act_args : Runtime.Value.t array;  (** boxed arguments (padded to arity) *)
  act_env : Runtime.Value.t ref array;  (** the closure's captured cells *)
  act_cells : Runtime.Value.t ref array;  (** this activation's own cells *)
  act_osr_args : Runtime.Value.t array;  (** interpreter frame at OSR entry *)
  act_osr_locals : Runtime.Value.t array;
}

type bailout = {
  bo_pc : int;  (** bytecode pc to resume at *)
  bo_native_pc : int;  (** native instruction whose guard failed *)
  bo_args : Runtime.Value.t array;
  bo_locals : Runtime.Value.t array;
  bo_stack : Runtime.Value.t array;  (** operand stack, bottom first *)
  bo_reason : string;
}

type outcome = Finished of Runtime.Value.t | Bailed of bailout

type callbacks = {
  call : Runtime.Value.t -> Runtime.Value.t array -> Runtime.Value.t;
      (** engine dispatch for calls made by compiled code *)
  globals : Runtime.Value.t array;  (** the global slot table *)
  cycles : int ref;  (** cycle accumulator, shared with the engine *)
  charge : (Code.t -> int -> int -> unit) option;
      (** Cycle-attribution observer, fired as [charge code pc cycles] at
          every site that adds to [cycles]: per-instruction cost, the three
          call overheads, and the bailout penalty (charged to the failing
          guard's pc). [code.origins.(pc)] recovers each charge's
          provenance. Observation only: with [None] the cycle stream is
          byte-identical. *)
  tick : (Code.t -> int -> unit) option;
      (** Per-instruction observer, fired as [tick code pc] once per
          executed instruction, right after its charge, so a budget
          comparison sees a current clock. Raising from here (a deadline
          expiry) aborts the run without evaluating a snapshot. *)
}
(** What the engine hands each activation: one record per engine run,
    shared by all of the run's activations. {!run} reads the two observers
    once at entry to pick its dispatch loop. *)

type program
(** A loaded binary. {!load} resolves every operand to an index into one
    per-activation location array — registers, then spill slots, then
    the binary's immediates — precomputes {!Cost.instr} per pc, and builds
    one step closure per instruction that executes it and returns the
    next pc. Steps capture only indices, their op's payload and their
    snapshot id; snapshots are read from the {!Code.t} at bail time. *)

val load : Code.t -> program
(** Load allocated code, once per binary. @raise Invalid_argument on an
    unallocated ([V]) or out-of-range operand. Every other malformation (a
    guard without a snapshot, a missing OSR entry, an element access on
    the wrong kind) still raises at run time, when it executes. *)

val run : callbacks -> program -> activation -> at_osr:bool -> outcome
(** Execute a loaded binary. [at_osr] starts at the code's OSR offset.
    With [charge] and [tick] both [None] the plain loop runs: add the
    instruction's cost, call its step. Otherwise the observed loop runs:
    charge (firing [charge]), fire [tick], call the step — the same cycle
    stream and the same observer order either way. Call overheads are
    charged inside the call's step, the bailout penalty at the failing
    guard's pc. @raise Runtime.Objmodel.Error for genuine JS type errors
    (same as the interpreter). *)

val make_activation :
  ?env:Runtime.Value.t ref array ->
  ?osr:Runtime.Value.t array * Runtime.Value.t array ->
  func:Bytecode.Program.func ->
  args:Runtime.Value.t array ->
  unit ->
  activation
(** Pad arguments to the arity, allocate fresh cells. *)
