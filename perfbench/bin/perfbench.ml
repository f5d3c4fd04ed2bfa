(* The benchmark program. Usually started by run.py, which builds it and
   supplies the node reference outputs:

     perfbench programs --workload W --seed N
         write the workload's programs (for reference generation)
     perfbench run --workload W --seed N --seconds S --trace 0|1 --refs FILE
         [--spans FILE]
         measure; the last line of output is the JSON result
     perfbench compare --seed N --seconds S --refs FILE
         per-member report joining suite-jit and suite-interp
     perfbench metrics
         list the end-to-end and per-layer metric names and units *)

open Perfbench

let usage () =
  prerr_endline
    "usage: perfbench (programs|run|compare|metrics) [--workload W] [--seed N] [--seconds S] \
     [--trace 0|1] [--refs FILE] [--spans FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let cmd, opts = match args with _ :: cmd :: rest -> (cmd, rest) | _ -> usage () in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] opts in
  let opt name = List.assoc_opt name opts in
  let req name = match opt name with Some v -> v | None -> usage () in
  let seed = int_of_string (Option.value (opt "seed") ~default:"20130223") in
  match cmd with
  | "programs" ->
    let w = Bench.workload_of_string (req "workload") in
    set_binary_mode_out stdout true;
    Refs.write_programs stdout (Bench.programs w ~seed)
  | "run" ->
    let w = Bench.workload_of_string (req "workload") in
    let ok =
      Bench.run ?spans_path:(opt "spans") w ~seed
        ~seconds:(float_of_string (req "seconds"))
        ~trace:(req "trace" = "1") ~refs_path:(req "refs")
    in
    exit (if ok then 0 else 1)
  | "metrics" ->
    List.iter (fun (n, u) -> Printf.printf "end_to_end %s %s\n" n u) Bench.end_to_end;
    List.iter (fun (n, u) -> Printf.printf "per_layer %s %s\n" n u) Layers.metrics
  | "compare" ->
    Compare.run ~seed ~seconds:(float_of_string (req "seconds")) ~refs_path:(req "refs")
  | _ -> usage ()
