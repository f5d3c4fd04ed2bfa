open Runtime

type activation = {
  act_args : Value.t array;
  act_env : Value.t ref array;
  act_cells : Value.t ref array;
  act_osr_args : Value.t array;
  act_osr_locals : Value.t array;
}

type bailout = {
  bo_pc : int;
  bo_native_pc : int;
  bo_args : Value.t array;
  bo_locals : Value.t array;
  bo_stack : Value.t array;
  bo_reason : string;
}

type outcome = Finished of Value.t | Bailed of bailout

type callbacks = {
  call : Value.t -> Value.t array -> Value.t;
  globals : Value.t array;
  cycles : int ref;
  charge : (Code.t -> int -> int -> unit) option;
  tick : (Code.t -> int -> unit) option;
}

let make_activation ?(env = [||]) ?osr ~(func : Bytecode.Program.func) ~args () =
  let padded =
    if Array.length args >= func.Bytecode.Program.arity then args
    else
      Array.init func.Bytecode.Program.arity (fun i ->
          if i < Array.length args then args.(i) else Value.Undefined)
  in
  let osr_args, osr_locals = Option.value osr ~default:([||], [||]) in
  {
    act_args = padded;
    act_env = env;
    act_cells = Array.init (max func.Bytecode.Program.ncells 1) (fun _ -> ref Value.Undefined);
    act_osr_args = osr_args;
    act_osr_locals = osr_locals;
  }

(* [Bail (snapshot id, native pc, reason)]: the failing guard's pc travels
   with the exception, so the dispatch loops keep no pc of their own. *)
exception Bail of int * int * string

(* Dispatch-loop exit, same idiom as the interpreter: [Ret] raises instead
   of the loop comparing an option per executed instruction. Never escapes
   [run]. *)
exception Returned of Value.t

(* One activation's state. [locs] holds the registers, then the spill
   slots, then the binary's immediates: every operand is an index into it. *)
type frame = { locs : Value.t array; act : activation; cb : callbacks; prog : program }

and program = {
  code : Code.t;
  costs : int array;  (* [Cost.instr] per pc *)
  steps : (frame -> int) array;  (* per pc: execute, return the next pc *)
  template : Value.t array;  (* [Undefined] registers and slots, then immediates *)
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
  | None -> invalid_arg ("Exec.run: guard without snapshot: " ^ reason)

(* An op without a value leaves [Undefined] in its destination, if any. *)
let no_value f d pc =
  set f d Value.Undefined;
  pc + 1

(* Chaos layer: a passing guard may be forced down its bailout path
   (snapshot and all). Only guards with a snapshot count as occurrences —
   a snapshot-less site has no bail path to take. *)
let inject snap = snap <> None && Faults.fire Faults.Exec_guard

(* The values at [ix.(from..)], as a fresh array. *)
let gather f ix from =
  let n = Array.length ix - from in
  if n <= 0 then [||]
  else begin
    let a = Array.make n (get f ix.(from)) in
    for i = 1 to n - 1 do
      a.(i) <- get f ix.(from + i)
    done;
    a
  end

let capture act = function
  | Bytecode.Instr.Cap_cell i -> act.act_cells.(i)
  | Bytecode.Instr.Cap_upval i -> act.act_env.(i)

let op_step pc d ix snap op =
  match op with
  | Code.Move ->
    let a = ix.(0) in
    fun f -> set f d (get f a); pc + 1
  | Code.Param i -> fun f -> set f d f.act.act_args.(i); pc + 1
  | Code.Osr_arg i -> fun f -> set f d f.act.act_osr_args.(i); pc + 1
  | Code.Osr_local i -> fun f -> set f d f.act.act_osr_locals.(i); pc + 1
  | Code.Bin (bop, Mir.Mode_int) ->
    (* Checked int32 arithmetic: bail when the JS result leaves the int32
       domain (overflow, NaN from x%0, >>> overflow). *)
    let a = ix.(0) and b = ix.(1) in
    fun f ->
      (match Ops.binop bop (get f a) (get f b) with
      | Value.Int _ as r -> if inject snap then bail snap pc "int32 overflow" else set f d r
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
        if inject snap then bail snap pc "type barrier" else set f d v
      else bail snap pc "type barrier";
      pc + 1
  | Code.Guard_array ->
    let a = ix.(0) in
    fun f ->
      (match get f a with
      | Value.Arr _ as v -> if inject snap then bail snap pc "not an array" else set f d v
      | _ -> bail snap pc "not an array");
      pc + 1
  | Code.Guard_bounds ->
    let a = ix.(0) and b = ix.(1) in
    fun f ->
      (match (get f a, get f b) with
      | Value.Int i, Value.Arr arr when i >= 0 && i < arr.Value.length ->
        if inject snap then bail snap pc "bounds check" else set f d Value.Undefined
      | _ -> bail snap pc "bounds check");
      pc + 1
  | Code.Load_elem_op ->
    let a = ix.(0) and b = ix.(1) in
    fun f ->
      (match (get f a, get f b) with
      | Value.Arr arr, Value.Int i -> set f d (Value.arr_get arr i)
      | _ -> invalid_arg "Exec.run: ldelem on non-array (missing guard)");
      pc + 1
  | Code.Store_elem_op ->
    let a = ix.(0) and b = ix.(1) and c = ix.(2) in
    fun f ->
      (match (get f a, get f b) with
      | Value.Arr arr, Value.Int i -> Value.arr_set arr i (get f c)
      | _ -> invalid_arg "Exec.run: stelem on non-array (missing guard)");
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
      | _ -> invalid_arg "Exec.run: arrlen on non-array");
      pc + 1
  | Code.Str_len ->
    let a = ix.(0) in
    fun f ->
      (match get f a with
      | Value.Str s -> set f d (Value.Int (String.length s))
      | _ -> invalid_arg "Exec.run: strlen on non-string");
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
      let env = Array.map (capture f.act) caps in
      set f d (Value.Closure { Value.fid; env; cid = Value.fresh_id () });
      pc + 1
  | Code.Get_global_op i -> fun f -> set f d f.cb.globals.(i); pc + 1
  | Code.Set_global_op i ->
    let a = ix.(0) in
    fun f -> f.cb.globals.(i) <- get f a; no_value f d pc
  | Code.Get_cell_op i -> fun f -> set f d !(f.act.act_cells.(i)); pc + 1
  | Code.Set_cell_op i ->
    let a = ix.(0) in
    fun f -> f.act.act_cells.(i) := get f a; no_value f d pc
  | Code.Get_upval_op i -> fun f -> set f d !(f.act.act_env.(i)); pc + 1
  | Code.Set_upval_op i ->
    let a = ix.(0) in
    fun f -> f.act.act_env.(i) := get f a; no_value f d pc
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
  let step pc = function
    | Code.Jump t -> fun _ -> t
    | Code.Branch (c, t1, t2) ->
      let c = index c in
      fun f -> if Convert.to_boolean (get f c) then t1 else t2
    | Code.Ret s ->
      let s = index s in
      fun f -> raise_notrace (Returned (get f s))
    | Code.Op { dst; op; args; snap } ->
      let d = match dst with Some l -> loc_index code l | None -> -1 in
      op_step pc d (Array.map index args) snap op
  in
  let steps = Array.mapi step code.Code.instrs in
  let template = Array.make (base + !nimm) Value.Undefined in
  List.iteri (fun i v -> template.(base + !nimm - 1 - i) <- v) !imms;
  { code; costs = Array.map Cost.instr code.Code.instrs; steps; template }

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

let run cb prog act ~at_osr =
  let code = prog.code in
  let start =
    if at_osr then
      match code.Code.osr_offset with
      | Some o -> o
      | None -> invalid_arg "Exec.run: code has no OSR entry"
    else 0
  in
  let f = { locs = Array.copy prog.template; act; cb; prog } in
  try
    match (cb.charge, cb.tick) with
    | None, None -> plain f cb.cycles prog.costs prog.steps start
    | _, tick -> observed f tick start
  with
  | Returned v -> Finished v
  | Bail (id, pc, reason) ->
    (* The penalty is attributed to the guard that failed. *)
    charge_at f pc Cost.bailout_penalty;
    let s = code.Code.snapshots.(id) in
    let read = function Code.Imm v -> v | Code.L l -> f.locs.(loc_index code l) in
    let values srcs = Array.map read srcs in
    Bailed
      {
        bo_pc = s.Code.sn_pc;
        bo_native_pc = pc;
        bo_args = values s.Code.sn_args;
        bo_locals = values s.Code.sn_locals;
        bo_stack = values s.Code.sn_stack;
        bo_reason = reason;
      }
