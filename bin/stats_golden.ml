(* stats_golden: the counter-registry golden.

   Four suite members that between them exercise the engine's call path
   hardest (richards, navier-stokes, json-parse, earley-boyer) run under
   the three configurations `jsvm --spec`, `jsvm --no-jit` and
   `jsvm --spec --bg-compile --policy polyvariant --cache-size 4`. Each
   cell prints the registry `jsvm --stats` prints: the global
   [Counters.rows] table, then [Counters.fid_rows] for every function
   with a non-zero counter. The wall-clock pool line is left out, so the
   output is deterministic.

   The output is diffed against bin/stats_golden.expected by the @stats
   alias (promotable with `dune promote`): any change to how the engine
   counts — a counter bumped more or less often, or on another function —
   shows up as a diff. *)

let members = [ "richards"; "navier-stokes"; "json-parse"; "earley-boyer" ]

(* The engine configurations the three command lines build. *)
let configs =
  let all_on = Pipeline.all_on in
  [
    ("--spec", Engine.default_config ~opt:all_on ());
    ("--no-jit", { (Engine.default_config ~opt:Pipeline.baseline ()) with Engine.jit = false });
    ( "--spec --bg-compile --policy polyvariant --cache-size 4",
      Engine.default_config ~opt:all_on ~policy:Policy.Polyvariant ~cache_size:4
        ~bg_compile:true () );
  ]

let find_member name =
  List.find_map
    (fun (s : Suite.t) ->
      List.find_opt (fun (m : Suite.member) -> m.Suite.m_name = name) s.Suite.members)
    Suites.all
  |> Option.get

let cell cfg (m : Suite.member) =
  Runner.quiet (fun () ->
      let program = Bytecode.Compile.program_of_source m.Suite.m_source in
      let engine = Engine.make cfg program in
      let report = Engine.run engine in
      let c = Telemetry.counters (Engine.telemetry engine) in
      let b = Buffer.create 1024 in
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %s=%d\n" k v))
        (Telemetry.Counters.rows c);
      List.iter
        (fun (f : Engine.func_report) ->
          match Telemetry.Counters.fid_rows c f.Engine.fr_fid with
          | [] -> ()
          | rows ->
            Buffer.add_string b
              (Printf.sprintf "  %s: %s\n" f.Engine.fr_name
                 (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) rows))))
        report.Engine.functions;
      Buffer.contents b)

let () =
  List.iter
    (fun name ->
      let m = find_member name in
      List.iter
        (fun (cname, cfg) ->
          Printf.printf "%s %s\n%s" name cname (cell cfg m))
        configs)
    members
