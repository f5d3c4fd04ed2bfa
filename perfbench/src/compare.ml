(* The per-member report joining suite-jit and suite-interp: for every
   member the host-time ratio and the model-cycle ratio of the JIT against
   the interpreter, their geometric means, and the members where the model
   says the JIT wins while the host clock says it loses. Sweeps of the two
   configurations alternate so slow drift of the host hits both alike;
   host times are scaled to the reference speed like the benchmark's. *)

open Util

let run ~seed ~seconds ~refs_path =
  let refs = Refs.load refs_path in
  let jit_in = Wl_suite.setup Wl_suite.jit_config refs in
  let int_in = Wl_suite.setup Wl_suite.interp_config refs in
  let sweep cfg inputs k = Bench.timed (fun () -> Wl_suite.run_pass cfg inputs ~seed ~sweep:k) in
  let sweeps =
    Bench.repeat ~seconds ~min:3 (fun k ->
        (sweep Wl_suite.jit_config jit_in k, sweep Wl_suite.interp_config int_in k))
  in
  let host pick i =
    median
      (List.map
         (fun t ->
           let (s : Wl_suite.pass Bench.timed) = pick t.Bench.r in
           s.r.results.(i).host *. s.scale)
         sweeps)
  in
  let first pick i = (pick (List.hd sweeps).Bench.r : Wl_suite.pass Bench.timed).r.results.(i) in
  Printf.printf "%-28s %10s %10s %8s %12s %12s %8s\n" "member" "jit ms" "interp ms" "host x"
    "jit cycles" "interp cyc" "model x";
  let rows =
    List.init (Array.length jit_in) (fun i ->
        let hj = host fst i and hi = host snd i in
        let cj = (first fst i).total and ci = (first snd i).total in
        let ok = (first fst i).ok && (first snd i).ok in
        let hx = hj /. hi and cx = float_of_int cj /. float_of_int ci in
        Printf.printf "%-28s %10.3f %10.3f %8.3f %12d %12d %8.3f%s\n" jit_in.(i).prog.name
          (1e3 *. hj) (1e3 *. hi) hx cj ci cx
          (if ok then "" else "  OUTPUT MISMATCH");
        (jit_in.(i).prog.name, hx, cx))
  in
  Printf.printf "geomean host ratio (jit/interp): %.3f\n" (geomean (List.map (fun (_, h, _) -> h) rows));
  Printf.printf "geomean model-cycle ratio (jit/interp): %.3f\n"
    (geomean (List.map (fun (_, _, c) -> c) rows));
  let split = List.filter (fun (_, h, c) -> c < 1.0 && h > 1.0) rows in
  Printf.printf "model says the JIT wins, host clock says it loses: %d of %d\n" (List.length split)
    (List.length rows);
  List.iter (fun (name, h, c) -> Printf.printf "  %-28s host x %.3f  model x %.3f\n" name h c) split;
  Printf.printf "sweep pairs: %d\n" (List.length sweeps)
