(* Shared plumbing of the benchmark harness: the clock, sample
   statistics, file helpers, the private run directory and spawned
   rgleak processes. *)

module Obs = Rgleak_obs.Obs

(* Monotonic seconds (the telemetry library's CLOCK_MONOTONIC stub). *)
let now () = Int64.to_float (Obs.now_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---------- sample statistics ---------- *)

(* Nearest-rank quantile of an unsorted sample; [nan] when empty. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    (* The epsilon keeps e.g. 0.9 * 100 at rank 90 despite rounding. *)
    let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

(* The reporting rule for timings: besides the median, the highest of
   these percentiles that still has at least ten samples beyond it. *)
let tail_levels = [ 0.999; 0.99; 0.95; 0.9; 0.75 ]

let tail_percentile xs =
  List.find_opt
    (fun q ->
      let v = quantile xs q in
      List.length (List.filter (fun x -> x > v) xs) >= 10)
    tail_levels
  |> Option.map (fun q -> (q, quantile xs q))

(* ---------- files ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec copy_tree src dst =
  match Unix.lstat src with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    (try Unix.mkdir dst 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  | { Unix.st_kind = Unix.S_REG; _ } -> write_file dst (read_file src)
  | _ -> ()

(* (files, bytes) under a directory: the cache-growth check. *)
let rec tree_size path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> (0, 0)
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun (f, b) e ->
        let f', b' = tree_size (Filename.concat path e) in
        (f + f', b + b'))
      (0, 0) (Sys.readdir path)
  | { Unix.st_size; _ } -> (1, st_size)

(* ---------- the private run directory ---------- *)

(* Every run works under its own directory inside the checkout (caches,
   sockets, manifests, outputs), removed on every exit path together
   with any child still alive. *)
let runs_dir = ".perfbench-runs"

let root = ref ""
let children : int list ref = ref []

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let cleanup () =
  kill_children ();
  if !root <> "" then begin
    rm_rf !root;
    (* The shared parent goes too once no other run uses it. *)
    (try Unix.rmdir runs_dir with Unix.Unix_error _ -> ());
    root := ""
  end

let init_root ~tag =
  (try Unix.mkdir runs_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat runs_dir (Printf.sprintf "%s-%d" tag (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  root := dir;
  at_exit cleanup;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  dir

let path name = Filename.concat !root name

let fresh_dir name =
  let d = path name in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* ---------- spawned rgleak processes ---------- *)

(* The binary run.sh builds, relative to the checkout root. *)
let rgleak = "_build/default/bin/rgleak.exe"

external wait4 : int -> int * int = "perfbench_wait4"

(* Children see a cache location inside the run directory, so nothing
   they do can reach a user-level cache. *)
let child_env () =
  Array.append
    [| "RGLEAK_CACHE_DIR=" ^ path "default-cache" |]
    (Array.of_list
       (List.filter
          (fun kv ->
            not (String.length kv >= 17 && String.sub kv 0 17 = "RGLEAK_CACHE_DIR="))
          (Array.to_list (Unix.environment ()))))

let spawn ?(stdout = "/dev/null") ?(stderr = "/dev/null") args =
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fd_out = Unix.openfile stdout [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let fd_err = Unix.openfile stderr [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ fd_in; fd_out; fd_err ])
      (fun () ->
        Unix.create_process_env rgleak
          (Array.of_list (rgleak :: args))
          (child_env ()) fd_in fd_out fd_err)
  in
  children := pid :: !children;
  pid

type exit = { code : int; rss_kib : int }

let wait pid =
  let rec go () =
    match wait4 pid with
    | code, _ when code = min_int -> go ()
    | code, rss_kib -> { code; rss_kib }
  in
  let r = go () in
  children := List.filter (( <> ) pid) !children;
  r

type run = { wall : float; exit : exit }

(* Runs one command to completion: wall time from spawn to reap. *)
let run ?stdout ?stderr args =
  let t0 = now () in
  let pid = spawn ?stdout ?stderr args in
  let exit = wait pid in
  { wall = now () -. t0; exit }
