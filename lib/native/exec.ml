open Runtime

type bailout = {
  bo_pc : int;
  bo_native_pc : int;
  bo_args : Value.t array;
  bo_locals : Value.t array;
  bo_stack : Value.t array;
  bo_cells : Value.t ref array;
  bo_reason : string;
}

exception Bailout of bailout

type callbacks = {
  call : Value.t -> Value.t array -> Value.t;
  globals : Value.t array;
  cycles : int ref;
  charge : (Code.t -> int -> int -> unit) option;
  tick : (Code.t -> int -> unit) option;
  faults : bool;
}

(* [Bail (snapshot id, native pc, reason)]: the failing guard's pc travels
   with the exception, so the dispatch loops keep no pc of their own. *)
exception Bail of int * int * string

(* Dispatch-loop exit, same idiom as the interpreter: [Ret] stores the
   result in the frame and raises instead of the loop comparing an option
   per executed instruction. Carries nothing, so returning allocates
   nothing. Never escapes the activation. *)
exception Returned

(* One activation, fused: [locs] holds the registers, then the spill slots,
   then the binary's immediates (every operand is an index into it); the
   other fields are what the call passed in. Frames are pooled per
   program: an activation takes one from its program's pool and gives it
   back, registers and slots reset to [Undefined], when it ends. *)
type frame = {
  locs : Value.t array;
  mutable args : Value.t array;  (* boxed arguments (padded to arity) *)
  mutable env : Value.t ref array;  (* the closure's captured cells *)
  mutable cells : Value.t ref array;  (* this activation's own cells *)
  mutable osr_args : Value.t array;  (* interpreter frame at OSR entry *)
  mutable osr_locals : Value.t array;
  mutable cb : callbacks;
  mutable ret : Value.t;  (* the value [Ret] returns *)
  prog : program;
}

and program = {
  code : Code.t;
  costs : int array;  (* [Cost.instr] per pc *)
  steps : (frame -> int) array;  (* per pc: execute, return the next pc *)
  template : Value.t array;  (* [Undefined] registers and slots, then immediates *)
  scratch : int;  (* 1 + the highest location any step writes *)
  mutable pool : frame array;  (* idle frames, [pool.(0 .. npool - 1)] *)
  mutable npool : int;
}

let nregs = Regalloc.num_registers

let loc_index (code : Code.t) = function
  | Code.R r when r >= 0 && r < nregs -> r
  | Code.S s when s >= 0 && s < code.Code.nslots -> nregs + s
  | Code.R _ | Code.S _ -> invalid_arg "Exec: location out of range"
  | Code.V _ -> invalid_arg "Exec: unallocated code"

(* The step helpers below are shared by every step closure, which
   captures only ints, its op payload and its snapshot id: a loaded binary
   stays close to the size of its [Code.t]. Indices are checked against
   the template's bounds by [load]. *)
let get f i = Array.unsafe_get f.locs i

(* [d < 0]: the instruction has no destination. *)
let set f d v = if d >= 0 then Array.unsafe_set f.locs d v

(* Every addition to [cb.cycles] outside the plain loop goes through
   [charge_at], so the observer sees each charge at the native pc that
   caused it. *)
let charge_at f pc n =
  let cb = f.cb in
  cb.cycles := !(cb.cycles) + n;
  match cb.charge with Some g -> g f.prog.code pc n | None -> ()

let bail snap pc reason =
  match snap with
  | Some id -> raise (Bail (id, pc, reason))
  | None -> invalid_arg ("Exec: guard without snapshot: " ^ reason)

(* An op without a value leaves [Undefined] in its destination, if any. *)
let no_value f d pc =
  set f d Value.Undefined;
  pc + 1

(* Chaos layer: a passing guard may be forced down its bailout path
   (snapshot and all). Only guards with a snapshot count as occurrences —
   a snapshot-less site has no bail path to take. Without a fault plan
   (read once per run into [cb.faults]) a guard draws nothing. *)
let inject f snap =
  match snap with Some _ when f.cb.faults -> Faults.fire Faults.Exec_guard | _ -> false

(* The values at [ix.(from..)], as a fresh array. Short argument lists
   are built inline. *)
let gather f ix from =
  match Array.length ix - from with
  | n when n <= 0 -> [||]
  | 1 -> [| get f ix.(from) |]
  | 2 -> [| get f ix.(from); get f ix.(from + 1) |]
  | n -> begin
    let a = Array.make n (get f ix.(from)) in
    for i = 1 to n - 1 do
      a.(i) <- get f ix.(from + i)
    done;
    a
  end

let capture f = function
  | Bytecode.Instr.Cap_cell i -> f.cells.(i)
  | Bytecode.Instr.Cap_upval i -> f.env.(i)

let op_step pc d ix snap op =
  match op with
  | Code.Move ->
    let a = ix.(0) in
    fun f -> set f d (get f a); pc + 1
  | Code.Param i -> fun f -> set f d f.args.(i); pc + 1
  | Code.Osr_arg i -> fun f -> set f d f.osr_args.(i); pc + 1
  | Code.Osr_local i -> fun f -> set f d f.osr_locals.(i); pc + 1
  | Code.Bin (bop, Mir.Mode_int) ->
    (* Checked int32 arithmetic: bail when the JS result leaves the int32
       domain (overflow, NaN from x%0, >>> overflow). *)
    let a = ix.(0) and b = ix.(1) in
    fun f ->
      (match Ops.binop bop (get f a) (get f b) with
      | Value.Int _ as r -> if inject f snap then bail snap pc "int32 overflow" else set f d r
      | _ -> bail snap pc "int32 overflow");
      pc + 1
  | Code.Bin (bop, (Mir.Mode_int_nocheck | Mir.Mode_double | Mir.Mode_generic)) ->
    let a = ix.(0) and b = ix.(1) in
    fun f -> set f d (Ops.binop bop (get f a) (get f b)); pc + 1
  | Code.Cmp_op cop ->
    let a = ix.(0) and b = ix.(1) in
    fun f -> set f d (Ops.cmp cop (get f a) (get f b)); pc + 1
  | Code.Un uop ->
    let a = ix.(0) in
    fun f -> set f d (Ops.unop uop (get f a)); pc + 1
  | Code.To_bool_op ->
    let a = ix.(0) in
    fun f -> set f d (Value.Bool (Convert.to_boolean (get f a))); pc + 1
  | Code.Guard_type tag ->
    let a = ix.(0) in
    fun f ->
      let v = get f a in
      if Value.tag_of v = tag then
        if inject f snap then bail snap pc "type barrier" else set f d v
      else bail snap pc "type barrier";
      pc + 1
  | Code.Guard_array ->
    let a = ix.(0) in
    fun f ->
      (match get f a with
      | Value.Arr _ as v -> if inject f snap then bail snap pc "not an array" else set f d v
      | _ -> bail snap pc "not an array");
      pc + 1
  | Code.Guard_bounds ->
    let a = ix.(0) and b = ix.(1) in
    fun f ->
      (match (get f a, get f b) with
      | Value.Int i, Value.Arr arr when i >= 0 && i < arr.Value.length ->
        if inject f snap then bail snap pc "bounds check" else set f d Value.Undefined
      | _ -> bail snap pc "bounds check");
      pc + 1
  | Code.Load_elem_op ->
    let a = ix.(0) and b = ix.(1) in
    fun f ->
      (match (get f a, get f b) with
      | Value.Arr arr, Value.Int i -> set f d (Value.arr_get arr i)
      | _ -> invalid_arg "Exec: ldelem on non-array (missing guard)");
      pc + 1
  | Code.Store_elem_op ->
    let a = ix.(0) and b = ix.(1) and c = ix.(2) in
    fun f ->
      (match (get f a, get f b) with
      | Value.Arr arr, Value.Int i -> Value.arr_set arr i (get f c)
      | _ -> invalid_arg "Exec: stelem on non-array (missing guard)");
      no_value f d pc
  | Code.Elem_gen_op ->
    let a = ix.(0) and b = ix.(1) in
    fun f -> set f d (Objmodel.get_elem (get f a) (get f b)); pc + 1
  | Code.Store_elem_gen_op ->
    let a = ix.(0) and b = ix.(1) and c = ix.(2) in
    fun f -> Objmodel.set_elem (get f a) (get f b) (get f c); no_value f d pc
  | Code.Load_prop_op p ->
    let a = ix.(0) in
    fun f -> set f d (Objmodel.get_prop (get f a) p); pc + 1
  | Code.Store_prop_op p ->
    let a = ix.(0) and b = ix.(1) in
    fun f -> Objmodel.set_prop (get f a) p (get f b); no_value f d pc
  | Code.Arr_len ->
    let a = ix.(0) in
    fun f ->
      (match get f a with
      | Value.Arr arr -> set f d (Value.Int arr.Value.length)
      | _ -> invalid_arg "Exec: arrlen on non-array");
      pc + 1
  | Code.Str_len ->
    let a = ix.(0) in
    fun f ->
      (match get f a with
      | Value.Str s -> set f d (Value.Int (String.length s))
      | _ -> invalid_arg "Exec: strlen on non-string");
      pc + 1
  | Code.Call_dyn | Code.Call_known_op _ ->
    fun f ->
      charge_at f pc Cost.call_overhead;
      let callee = get f ix.(0) in
      set f d (f.cb.call callee (gather f ix 1));
      pc + 1
  | Code.Call_native_op name ->
    fun f ->
      charge_at f pc Cost.native_call_overhead;
      set f d (Builtins.call name (gather f ix 0));
      pc + 1
  | Code.Method_call_op name ->
    fun f ->
      charge_at f pc Cost.method_call_overhead;
      let recv = get f ix.(0) in
      set f d (Objmodel.dispatch_method ~call:f.cb.call recv name (gather f ix 1));
      pc + 1
  | Code.New_array_op ->
    fun f ->
      set f d (Value.Arr (Value.arr_of_list (Array.to_list (gather f ix 0))));
      pc + 1
  | Code.Construct_op ctor -> fun f -> set f d (Objmodel.construct ctor (gather f ix 0)); pc + 1
  | Code.New_object_op keys ->
    fun f ->
      let obj = Value.new_obj () in
      Array.iteri (fun i key -> Value.obj_set obj key (get f ix.(i))) keys;
      set f d (Value.Obj obj);
      pc + 1
  | Code.Make_closure_op (fid, caps) ->
    fun f ->
      let env = Array.map (capture f) caps in
      set f d (Value.Closure { Value.fid; env; cid = Value.fresh_id () });
      pc + 1
  | Code.Get_global_op i -> fun f -> set f d f.cb.globals.(i); pc + 1
  | Code.Set_global_op i ->
    let a = ix.(0) in
    fun f -> f.cb.globals.(i) <- get f a; no_value f d pc
  | Code.Get_cell_op i -> fun f -> set f d !(f.cells.(i)); pc + 1
  | Code.Set_cell_op i ->
    let a = ix.(0) in
    fun f -> f.cells.(i) := get f a; no_value f d pc
  | Code.Get_upval_op i -> fun f -> set f d !(f.env.(i)); pc + 1
  | Code.Set_upval_op i ->
    let a = ix.(0) in
    fun f -> f.env.(i) := get f a; no_value f d pc
  | Code.Load_captured_op r -> fun f -> set f d !r; pc + 1
  | Code.Store_captured_op r ->
    let a = ix.(0) in
    fun f -> r := get f a; no_value f d pc

let load (code : Code.t) =
  let imms = ref [] and nimm = ref 0 in
  let base = nregs + code.Code.nslots in
  let index = function
    | Code.L l -> loc_index code l
    | Code.Imm v ->
      imms := v :: !imms;
      incr nimm;
      base + !nimm - 1
  in
  let scratch = ref 0 in
  let step pc = function
    | Code.Jump t -> fun _ -> t
    | Code.Branch (c, t1, t2) ->
      let c = index c in
      fun f -> if Convert.to_boolean (get f c) then t1 else t2
    | Code.Ret s ->
      let s = index s in
      fun f ->
        f.ret <- get f s;
        raise_notrace Returned
    | Code.Op { dst; op; args; snap } ->
      let d = match dst with Some l -> loc_index code l | None -> -1 in
      scratch := max !scratch (d + 1);
      op_step pc d (Array.map index args) snap op
  in
  let steps = Array.mapi step code.Code.instrs in
  let template = Array.make (base + !nimm) Value.Undefined in
  List.iteri (fun i v -> template.(base + !nimm - 1 - i) <- v) !imms;
  { code; costs = Array.map Cost.instr code.Code.instrs; steps; template; scratch = !scratch;
    pool = [||]; npool = 0 }

(* The two dispatch loops; both leave only by exception ([Returned],
   [Bail], or whatever a step or an observer raises). The plain one runs
   when nothing observes: one addition, then the step. The checked read
   of [costs] bounds [pc] for the unchecked read of [steps], which has
   the same length. *)
let rec plain f cycles costs steps pc =
  cycles := !cycles + costs.(pc);
  plain f cycles costs steps ((Array.unsafe_get steps pc) f)

(* Charge, then tick, then the step: a budget comparison in [tick] sees
   a clock that includes the instruction about to run. *)
let rec observed f tick pc =
  charge_at f pc f.prog.costs.(pc);
  (match tick with Some g -> g f.prog.code pc | None -> ());
  observed f tick ((Array.unsafe_get f.prog.steps pc) f)

(* Frames an idle program keeps for reuse. Recursion deeper than this
   allocates the surplus frames, which are dropped when they return. *)
let max_pooled = 16

let acquire cb prog =
  if prog.npool > 0 then begin
    prog.npool <- prog.npool - 1;
    let f = Array.unsafe_get prog.pool prog.npool in
    if f.cb != cb then f.cb <- cb;
    f
  end
  else
    { locs = Array.copy prog.template; args = [||]; env = [||]; cells = [||];
      osr_args = [||]; osr_locals = [||]; cb; ret = Value.Undefined; prog }

(* Reset everything the activation wrote or was given, so an idle frame
   looks like a fresh copy of the template and keeps none of its values
   alive. Steps write only below [scratch]: the immediates and any
   register or slot no instruction defines stay as the template has them.
   A pooled frame lives in the major heap, where every store pays the
   write barrier, so inputs that are usually empty are only stored when
   they are not. *)
let release f =
  let prog = f.prog in
  for i = 0 to prog.scratch - 1 do
    Array.unsafe_set f.locs i Value.Undefined
  done;
  f.ret <- Value.Undefined;
  f.args <- [||];
  if f.env != [||] then f.env <- [||];
  if f.cells != [||] then f.cells <- [||];
  if f.osr_args != [||] then f.osr_args <- [||];
  if f.osr_locals != [||] then f.osr_locals <- [||];
  if prog.npool = Array.length prog.pool && prog.npool < max_pooled then begin
    let pool = Array.make (max 2 (2 * prog.npool)) f in
    Array.blit prog.pool 0 pool 0 prog.npool;
    prog.pool <- pool
  end;
  if prog.npool < Array.length prog.pool then begin
    Array.unsafe_set prog.pool prog.npool f;
    prog.npool <- prog.npool + 1
  end

let run_from f start =
  let prog = f.prog and cb = f.cb in
  try
    match (cb.charge, cb.tick) with
    | None, None -> plain f cb.cycles prog.costs prog.steps start
    | _, tick -> observed f tick start
  with
  | Returned ->
    let v = f.ret in
    release f;
    v
  | Bail (id, pc, reason) ->
    (* The penalty is attributed to the guard that failed. *)
    charge_at f pc Cost.bailout_penalty;
    let code = prog.code in
    let s = code.Code.snapshots.(id) in
    let read = function Code.Imm v -> v | Code.L l -> f.locs.(loc_index code l) in
    let values srcs = Array.map read srcs in
    let b =
      {
        bo_pc = s.Code.sn_pc;
        bo_native_pc = pc;
        bo_args = values s.Code.sn_args;
        bo_locals = values s.Code.sn_locals;
        bo_stack = values s.Code.sn_stack;
        bo_cells = f.cells;
        bo_reason = reason;
      }
    in
    release f;
    raise (Bailout b)
  | e ->
    release f;
    raise e

let call cb prog ~(func : Bytecode.Program.func) ~env ~args =
  let f = acquire cb prog in
  let arity = func.Bytecode.Program.arity in
  f.args <-
    (if Array.length args >= arity then args
     else Array.init arity (fun i -> if i < Array.length args then args.(i) else Value.Undefined));
  if f.env != env then f.env <- env;
  if func.Bytecode.Program.ncells > 0 then
    f.cells <- Array.init func.Bytecode.Program.ncells (fun _ -> ref Value.Undefined);
  run_from f 0

let enter_osr cb prog ~env ~cells ~args ~locals =
  let start =
    match prog.code.Code.osr_offset with
    | Some o -> o
    | None -> invalid_arg "Exec.enter_osr: code has no OSR entry"
  in
  let f = acquire cb prog in
  f.args <- args;
  f.env <- env;
  f.cells <- cells;
  f.osr_args <- args;
  f.osr_locals <- locals;
  run_from f start
