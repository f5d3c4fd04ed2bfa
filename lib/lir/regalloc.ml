let num_registers = 12
let reg_srcs = Array.init num_registers (fun r -> Code.L (Code.R r))
let reg_dsts = Array.init num_registers (fun r -> Some (Code.R r))

module Int_set = Set.Make (Int)

(* Uses and the (optional) def of one instruction, as virtual registers. *)
let instr_uses (code : Code.t) (n : Code.ninstr) =
  let of_src acc = function Code.L (Code.V d) -> d :: acc | _ -> acc in
  match n with
  | Code.Op { args; snap; _ } ->
    let base = Array.fold_left of_src [] args in
    (match snap with
    | None -> base
    | Some id ->
      let s = code.Code.snapshots.(id) in
      let all = Array.concat [ s.Code.sn_args; s.Code.sn_locals; s.Code.sn_stack ] in
      Array.fold_left of_src base all)
  | Code.Branch (c, _, _) -> of_src [] c
  | Code.Ret s -> of_src [] s
  | Code.Jump _ -> []

let instr_def (n : Code.ninstr) =
  match n with
  | Code.Op { dst = Some (Code.V d); _ } -> Some d
  | Code.Op _ | Code.Jump _ | Code.Branch _ | Code.Ret _ -> None

let successors_of (code : Code.t) i =
  match code.Code.instrs.(i) with
  | Code.Jump t -> [ t ]
  | Code.Branch (_, a, b) -> [ a; b ]
  | Code.Ret _ -> []
  | Code.Op _ -> if i + 1 < Array.length code.Code.instrs then [ i + 1 ] else []

(* Linear blocks of the flattened code. *)
let linear_blocks (code : Code.t) =
  let n = Array.length code.Code.instrs in
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(0) <- true;
  Option.iter (fun o -> leader.(o) <- true) code.Code.osr_offset;
  Array.iteri
    (fun i instr ->
      match instr with
      | Code.Jump t ->
        leader.(t) <- true;
        if i + 1 < n then leader.(i + 1) <- true
      | Code.Branch (_, a, b) ->
        leader.(a) <- true;
        leader.(b) <- true;
        if i + 1 < n then leader.(i + 1) <- true
      | Code.Ret _ -> if i + 1 < n then leader.(i + 1) <- true
      | Code.Op _ -> ())
    code.Code.instrs;
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if leader.(i) then starts := i :: !starts
  done;
  let starts = !starts in
  let ends =
    match starts with
    | [] -> []
    | _ :: rest -> List.map (fun s -> s) rest @ [ n ]
  in
  List.combine starts ends

let run (code : Code.t) =
  let n = Array.length code.Code.instrs in
  let blocks = linear_blocks code in
  let block_of = Hashtbl.create 16 in
  List.iteri (fun idx span -> Hashtbl.replace block_of idx span) blocks;
  (* Per-block use/def. *)
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  let block_starts = List.map fst blocks in
  let start_of_block_at = Hashtbl.create 16 in
  List.iter (fun (s, e) -> Hashtbl.replace start_of_block_at s (s, e)) blocks;
  let block_succs (_s, e) =
    if e = 0 then []
    else
      List.filter_map
        (fun t -> Option.map fst (Hashtbl.find_opt start_of_block_at t))
        (successors_of code (e - 1))
  in
  let gen_kill (s, e) =
    let gen = ref Int_set.empty and kill = ref Int_set.empty in
    for i = s to e - 1 do
      List.iter
        (fun u -> if not (Int_set.mem u !kill) then gen := Int_set.add u !gen)
        (instr_uses code code.Code.instrs.(i));
      Option.iter (fun d -> kill := Int_set.add d !kill) (instr_def code.Code.instrs.(i))
    done;
    (!gen, !kill)
  in
  let gk = List.map (fun span -> (fst span, (span, gen_kill span))) blocks in
  let gk_tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace gk_tbl k v) gk;
  let get_in s = Option.value (Hashtbl.find_opt live_in s) ~default:Int_set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        let span, (gen, kill) = Hashtbl.find gk_tbl s in
        let out =
          List.fold_left
            (fun acc succ -> Int_set.union acc (get_in succ))
            Int_set.empty (block_succs span)
        in
        let inn = Int_set.union gen (Int_set.diff out kill) in
        if not (Int_set.equal inn (get_in s)) then begin
          Hashtbl.replace live_in s inn;
          changed := true
        end;
        Hashtbl.replace live_out s out)
      (List.rev block_starts)
  done;
  (* Intervals. *)
  let starts = Hashtbl.create 64 and ends = Hashtbl.create 64 in
  let touch v pos =
    (match Hashtbl.find_opt starts v with
    | None -> Hashtbl.replace starts v pos
    | Some s -> if pos < s then Hashtbl.replace starts v pos);
    match Hashtbl.find_opt ends v with
    | None -> Hashtbl.replace ends v pos
    | Some e -> if pos > e then Hashtbl.replace ends v pos
  in
  List.iter
    (fun (s, e) ->
      let inn = get_in s in
      let out = Option.value (Hashtbl.find_opt live_out s) ~default:Int_set.empty in
      Int_set.iter (fun v -> touch v s) inn;
      Int_set.iter (fun v -> touch v (e - 1)) out;
      for i = s to e - 1 do
        List.iter (fun u -> touch u i) (instr_uses code code.Code.instrs.(i));
        Option.iter (fun d -> touch d i) (instr_def code.Code.instrs.(i))
      done)
    blocks;
  let intervals =
    Hashtbl.fold (fun v s acc -> (v, s, Hashtbl.find ends v) :: acc) starts []
    |> List.sort (fun (_, s1, _) (_, s2, _) -> compare s1 s2)
  in
  (* Linear scan. *)
  let assignment : (int, Code.loc) Hashtbl.t = Hashtbl.create 64 in
  let free = ref (List.init num_registers (fun r -> r)) in
  let active = ref [] in  (* (vreg, end, reg), sorted by end *)
  let next_slot = ref 0 in
  let expire pos =
    let expired, live = List.partition (fun (_, e, _) -> e < pos) !active in
    List.iter (fun (_, _, r) -> free := r :: !free) expired;
    active := live
  in
  let insert_active entry =
    let rec ins = function
      | [] -> [ entry ]
      | ((_, e, _) as x) :: rest ->
        let _, e', _ = entry in
        if e' <= e then entry :: x :: rest else x :: ins rest
    in
    active := ins !active
  in
  List.iter
    (fun (v, s, e) ->
      expire s;
      match !free with
      | r :: rest ->
        free := rest;
        Hashtbl.replace assignment v (Code.R r);
        insert_active (v, e, r)
      | [] ->
        (* Spill the interval with the furthest end. *)
        let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> assert false in
        let v', e', r' = last !active in
        if e' > e then begin
          (* Steal its register; the old interval moves to a slot. *)
          Hashtbl.replace assignment v' (Code.S !next_slot);
          incr next_slot;
          Hashtbl.replace assignment v (Code.R r');
          active := List.filter (fun (x, _, _) -> x <> v') !active;
          insert_active (v, e, r')
        end
        else begin
          Hashtbl.replace assignment v (Code.S !next_slot);
          incr next_slot
        end)
    intervals;
  (* Rewrite. *)
  let map_loc = function
    | Code.V v -> (
      match Hashtbl.find_opt assignment v with
      | Some l -> l
      | None -> Code.R 0 (* defined but never used nor live: park in r0 *))
    | other -> other
  in
  (* One operand node per location, shared by every instruction and
     snapshot that names it: engines keep their binaries warm, so the
     nodes are retained memory. *)
  let slot_srcs = Array.init !next_slot (fun s -> Code.L (Code.S s)) in
  let slot_dsts = Array.init !next_slot (fun s -> Some (Code.S s)) in
  let share regs slots = function
    | Code.R r -> regs.(r)
    | Code.S s -> slots.(s)
    | Code.V _ -> assert false (* [map_loc] never returns one *)
  in
  let map_src = function Code.L l -> share reg_srcs slot_srcs (map_loc l) | imm -> imm in
  let map_dst = function Some l -> share reg_dsts slot_dsts (map_loc l) | None -> None in
  let map_instr (i : Code.instr) =
    { i with Code.dst = map_dst i.Code.dst; args = Array.map map_src i.Code.args }
  in
  let instrs =
    Array.map
      (function
        | Code.Op i -> Code.Op (map_instr i)
        | Code.Jump t -> Code.Jump t
        | Code.Branch (c, a, b) -> Code.Branch (map_src c, a, b)
        | Code.Ret s -> Code.Ret (map_src s))
      code.Code.instrs
  in
  let snapshots =
    Array.map
      (fun s ->
        {
          s with
          Code.sn_args = Array.map map_src s.Code.sn_args;
          sn_locals = Array.map map_src s.Code.sn_locals;
          sn_stack = Array.map map_src s.Code.sn_stack;
        })
      code.Code.snapshots
  in
  ignore n;
  ignore block_of;
  ({ code with Code.instrs; snapshots; nslots = !next_slot }, List.length intervals)
