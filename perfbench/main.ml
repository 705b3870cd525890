(* perfbench: the end-to-end benchmark of rgleak (see README.md).

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload against the built rgleak binary and prints every
   metric by name with its unit, then one JSON result line. *)

open Perfbench

let workloads =
  [ ("cli-estimate", Cli_w.run); ("batch-sweep", Batch_w.run);
    ("serve-mixed", Serve_w.run); ("optimize-20k", Opt_w.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload {cli-estimate|batch-sweep|serve-mixed|optimize-20k} \
     --seed N --seconds S --trace 0|1";
  exit 2

let git_commit () =
  try
    let head = String.trim (Common.read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      String.trim (Common.read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
    else head
  with Sys_error _ -> "unknown (not a git checkout)"

let host () =
  [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("default_jobs", string_of_int (Rgleak_num.Parallel.default_jobs ()));
    ("kernel_isa", Rgleak_num.Pair_kernel.selected_isa ());
    ("ocaml", Sys.ocaml_version); ("commit", git_commit ()) ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with Some r -> r | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  if not (Sys.file_exists Common.rgleak) then begin
    Printf.eprintf "perfbench: no rgleak binary at %s\n" Common.rgleak;
    exit 2
  end;
  ignore (Common.init_root ~tag:(Printf.sprintf "%s-%d" !workload !seed));
  let traced = !trace = 1 in
  (try run ~seed:!seed ~seconds:!seconds ~traced
   with e ->
     ignore (Metrics.attempt false ("harness error: " ^ Printexc.to_string e)));
  Common.cleanup ();
  Metrics.print ~workload:!workload ~traced ~host:(host ())
