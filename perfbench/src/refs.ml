(* Programs and their reference outputs.

   A record file is a header line followed by entries of the form

     <md5 hex> <name> <byte length>\n<bytes>\n

   The benchmark writes its programs (the sources) in this format; the
   runner keys reference outputs produced by node by the md5 of the source
   and writes them back in the same format. Keying by content means a
   reference can never be attached to a different program than the one it
   was produced from. *)

type program = { name : string; source : string; digest : string }

let program name source = { name; source; digest = Digest.to_hex (Digest.string source) }

let write_programs oc programs =
  output_string oc "vs-programs/1\n";
  List.iter
    (fun p -> Printf.fprintf oc "%s %s %d\n%s\n" p.digest p.name (String.length p.source) p.source)
    programs

(* digest -> expected output *)
type t = (string, string) Hashtbl.t

let load path : t =
  let ic = open_in_bin path in
  let tbl = Hashtbl.create 512 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      if input_line ic <> "vs-refs/1" then failwith (path ^ ": not a reference file");
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> ()
        | line ->
          (match String.split_on_char ' ' line with
          | [ digest; _name; len ] ->
            let body = really_input_string ic (int_of_string len) in
            ignore (input_char ic);
            Hashtbl.replace tbl digest body
          | _ -> failwith (path ^ ": malformed entry header: " ^ line));
          loop ()
      in
      loop ());
  tbl

(* The reference output of a program. A program without one is a set-up
   error, never a pass: the benchmark must not compare the VM against
   itself. *)
let expected (t : t) p =
  match Hashtbl.find_opt t p.digest with
  | Some out -> out
  | None -> failwith (Printf.sprintf "no node reference output for %s (%s)" p.name p.digest)

(* Run [f] with every [print] of the VM captured; returns the captured
   text alongside [f]'s result (or exception). *)
let capture f =
  let buf = Buffer.create 256 in
  let r =
    Runtime.Builtins.with_print_hook
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      (fun () -> try Ok (f ()) with e -> Error e)
  in
  (r, Buffer.contents buf)
