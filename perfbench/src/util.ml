(* Clocks, summary statistics and the in-memory span recorder. *)

(* Monotonic host time in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Minor-heap words allocated so far by every domain of the process. In
   OCaml 5 each domain keeps its own counters and [Gc.quick_stat] sums the
   samples the domains take at their minor collections; a minor collection
   is stop-the-world, so forcing one first makes the sum exact. *)
let minor_words_all () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* A fixed kernel that shares no code with the VM: sorting short lists,
   so it allocates at the VM's pace and walks what it allocated. Its time
   tracks the host's speed at the moment, including the memory-system
   contention an arithmetic loop does not feel. *)
let kernel () =
  let acc = ref 0 in
  for i = 0 to 4_000 do
    let l = List.sort compare (List.init 12 (fun j -> ((i * 7919) + (j * 104729)) land 1023)) in
    acc := !acc + List.hd l
  done;
  !acc

let fastest_kernel () =
  let best = ref infinity in
  for _ = 1 to 8 do
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    best := Float.min !best (now () -. t0)
  done;
  !best

(* The host's current speed: the fastest of eight kernel runs, seconds.
   A full major collection first settles the garbage the measured code
   left behind, which the kernel's own minor collections would otherwise
   pay for. *)
let calibrate () =
  Gc.full_major ();
  fastest_kernel ()

(* Wait until the pool has no queued job left: awaiting an empty
   low-priority job helps run the background compiles a service run
   queued but never harvested, so they do not spill into the next one. *)
let settle pool = Pool.await pool (Pool.submit pool ~priority:Pool.Low ignore)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort compare xs

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] (the "exclusive"
   method) computes them, so the printed spread matches the one the
   benchmark's acceptance check computes. A single sample is its own
   quartiles. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Nearest rank: the ceil(p*n)-th smallest sample, as the service layer
   reports its latency percentiles. *)
let nearest_rank p xs =
  match xs with
  | [] -> 0
  | _ ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Host-clock spans around the calls the benchmark makes into each layer.
   They stay in memory during the run (one cons per span) and are summed
   per name for the per-layer metrics and written out as a Chrome trace
   at the end. *)
module Spans = struct
  type span = { name : string; label : string; start : float; dur : float }
  type t = { mutable spans : span list; origin : float }

  let create () = { spans = []; origin = now () }

  let add t ~name ~label ~start ~dur = t.spans <- { name; label; start; dur } :: t.spans

  let span t name ?(label = "") f =
    let t0 = now () in
    Fun.protect f ~finally:(fun () -> add t ~name ~label ~start:t0 ~dur:(now () -. t0))

  let total t name =
    List.fold_left (fun acc s -> if s.name = name then acc +. s.dur else acc) 0.0 t.spans

  (* Chrome trace-event JSON, one thread per recorder, timestamps from the
     first recorder's origin. *)
  let write_chrome ts path =
    let origin = match ts with t :: _ -> t.origin | [] -> 0.0 in
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    let first = ref true in
    List.iteri
      (fun tid t ->
        List.iter
          (fun s ->
            if not !first then output_string oc ",\n";
            first := false;
            Printf.fprintf oc
              "{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"label\":\"%s\"}}"
              s.name (tid + 1)
              ((s.start -. origin) *. 1e6)
              (s.dur *. 1e6)
              (String.escaped s.label))
          (List.rev t.spans))
      ts;
    output_string oc "]}\n";
    close_out oc
end
