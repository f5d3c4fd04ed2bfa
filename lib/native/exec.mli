(** The native-code executor: a register machine over {!Code.t} with the
    cycle accounting of {!Cost}, direct-threaded. {!load} turns a binary
    into one step closure per instruction once, when the engine installs
    it; {!call} and {!enter_osr} then only call steps.

    Executing compiled code either returns the function's value or bails
    out: a failing guard evaluates its snapshot into the interpreter-frame
    state (bytecode pc, argument/local/stack values) that the engine uses
    to resume interpretation — the deoptimization mechanism of the paper's
    Section 3. *)

type bailout = {
  bo_pc : int;  (** bytecode pc to resume at *)
  bo_native_pc : int;  (** native instruction whose guard failed *)
  bo_args : Runtime.Value.t array;
  bo_locals : Runtime.Value.t array;
  bo_stack : Runtime.Value.t array;  (** operand stack, bottom first *)
  bo_cells : Runtime.Value.t ref array;
      (** the activation's own cells, which the resumed frame takes over *)
  bo_reason : string;
}

exception Bailout of bailout
(** A guard failed: the activation is over and the interpreter resumes
    from this state. Raised by {!call} and {!enter_osr}. *)

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
  faults : bool;
      (** A fault plan is installed for this run: every passing guard
          with a snapshot draws a [Faults.Exec_guard] occurrence, which
          may force it down its bailout path. [false] skips the draw. *)
}
(** What the engine hands each activation: one record per engine run,
    shared by all of the run's activations. An activation reads the two
    observers once at entry to pick its dispatch loop. *)

type program
(** A loaded binary. {!load} resolves every operand to an index into one
    per-activation location array — registers, then spill slots, then
    the binary's immediates — precomputes {!Cost.instr} per pc, and builds
    one step closure per instruction that executes it and returns the
    next pc. Steps capture only indices, their op's payload and their
    snapshot id; snapshots are read from the {!Code.t} at bail time.

    A program also pools its activations. An activation is one record:
    the location array plus the arguments, closure environment, own cells
    and OSR state it was entered with. It is taken from the pool on entry
    and put back on exit (return, bailout or exception) with its
    registers and slots reset to [Undefined] and its inputs dropped, so a
    warm call allocates no frame and copies no template. Up to 16 idle
    activations are kept per program; deeper recursion allocates the
    rest. A program is therefore owned by one engine and must not run on
    two domains at once. *)

val load : Code.t -> program
(** Load allocated code, once per binary. @raise Invalid_argument on an
    unallocated ([V]) or out-of-range operand. Every other malformation (a
    guard without a snapshot, a missing OSR entry, an element access on
    the wrong kind) still raises at run time, when it executes. *)

val call :
  callbacks ->
  program ->
  func:Bytecode.Program.func ->
  env:Runtime.Value.t ref array ->
  args:Runtime.Value.t array ->
  Runtime.Value.t
(** Run a loaded binary from its entry, as a call of [func] with closure
    environment [env]: arguments are padded with [Undefined] to the arity
    (the array is used as is when it is long enough; the executor never
    writes it) and the activation gets fresh cells when [func] has any.
    Returns the function's result.

    With [charge] and [tick] both [None] the plain loop runs: add the
    instruction's cost, call its step. Otherwise the observed loop runs:
    charge (firing [charge]), fire [tick], call the step — the same cycle
    stream and the same observer order either way. Call overheads are
    charged inside the call's step, the bailout penalty at the failing
    guard's pc.
    @raise Bailout when a guard fails.
    @raise Runtime.Objmodel.Error for genuine JS type errors (same as the
    interpreter). *)

val enter_osr :
  callbacks ->
  program ->
  env:Runtime.Value.t ref array ->
  cells:Runtime.Value.t ref array ->
  args:Runtime.Value.t array ->
  locals:Runtime.Value.t array ->
  Runtime.Value.t
(** Run a loaded binary from its OSR offset, taking over a running
    interpreter frame: its arguments, locals, cells and environment. Same
    loops and exceptions as {!call}.
    @raise Invalid_argument when the code has no OSR entry. *)
