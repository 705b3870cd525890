(* Spawned-command plumbing shared by the CLI workloads (cli-estimate,
   batch-sweep, optimize-20k) and the cli-estimate workload itself. *)

open Rgleak_core
module Batch = Rgleak_cache.Batch
module Histogram = Rgleak_circuit.Histogram
module Layout = Rgleak_circuit.Layout
module Signal_prob = Rgleak_cells.Signal_prob
module Characterize = Rgleak_cells.Characterize
module Corr_model = Rgleak_process.Corr_model
module Process_param = Rgleak_process.Process_param

let mb kib = float_of_int kib /. 1024.0

(* One spawned main command of a CLI workload, checked for exit 0. *)
type sample = { wall : float; rss_kib : int; ok : bool }

let run_checked ?stdout what args =
  let r = Common.run ?stdout args in
  let ok = Metrics.attempt (r.Common.exit.Common.code = 0)
      (Printf.sprintf "%s exited %d" what r.Common.exit.Common.code) in
  { wall = r.Common.wall; rss_kib = r.Common.exit.Common.rss_kib; ok }

(* Runs [f] on successive items until [seconds] have elapsed (always at
   least once), returning the results in order. *)
let timed_loop ~seconds items f =
  let t0 = Common.now () in
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
      if acc <> [] && Common.now () -. t0 >= seconds then List.rev acc
      else go (f x :: acc) rest
  in
  go [] items

(* The end-to-end metrics every CLI workload reports: [cmds] are the
   main commands, [reqs] the request-sized commands (with [limit_s] their
   latency limit), [heavy] the heavy class's walls.  A spawned command
   has no lighter operation to probe it with, so [reqs] also stand in
   for the pings: ping_p90_ms reads the same sample as req_p90_ms. *)
let report_cli ~setup ~limit_s ~scenarios_per_s ~cmds ~reqs ~heavy ~peak_kib =
  let walls l = List.map (fun s -> s.wall) l in
  let cmd_walls = walls cmds and req_walls = walls reqs in
  let rss = List.map (fun s -> mb s.rss_kib) cmds in
  Metrics.set_dist "setup_s" (Common.median setup) setup;
  Metrics.set_dist "cmd_p50_s" (Common.median cmd_walls) cmd_walls;
  Metrics.set ~samples:(List.length rss) "cmd_peak_rss_mb" (Common.median rss);
  Metrics.set "daemon_peak_rss_mb" (mb peak_kib);
  Metrics.set ~samples:(List.length cmds) "scenarios_per_s" scenarios_per_s;
  Metrics.set_dist ~scale:1000.0 "req_p50_ms" (Common.median req_walls) req_walls;
  Metrics.set_dist ~scale:1000.0 "req_p90_ms" (Common.quantile req_walls 0.9) req_walls;
  let within = List.filter (fun s -> s.ok && s.wall <= limit_s) reqs in
  Metrics.set ~samples:(List.length reqs) "req_within_limit_frac"
    (float_of_int (List.length within) /. float_of_int (List.length reqs));
  Metrics.set_dist ~scale:1000.0 "heavy_req_p50_ms" (Common.median heavy) heavy;
  Metrics.set_dist ~scale:1000.0 "ping_p90_ms" (Common.quantile req_walls 0.9) req_walls

let peak samples = List.fold_left (fun m s -> max m s.rss_kib) 0 samples

(* ---------- cli-estimate ---------- *)

let limit_s = 3.0

let method_of = function
  | "linear" -> Estimate.Linear
  | "int2d" -> Estimate.Integral_2d
  | "polar" -> Estimate.Integral_polar
  | _ -> Estimate.Auto

let arg_after flag args =
  let rec go = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

(* In-process replica of [rgleak estimate]: the public calls the
   subcommand makes, rendered exactly as it prints them. *)
let replica ~chars (c : Gen.estimate_cmd) =
  let scen =
    List.hd
      (Batch.parse_manifest
         (Gen.json_line
            [ ("n", Gen.num_i c.Gen.e_n); ("mix", Gen.str c.Gen.e_mix);
              ("corr", Gen.str c.Gen.e_corr) ]))
  in
  let histogram = Histogram.of_weights scen.Batch.s_mix in
  let corr = Corr_model.create scen.Batch.s_family Process_param.default_channel_length in
  let arg f = Option.map float_of_string (arg_after f c.Gen.e_args) in
  let square = Layout.square ~n:c.Gen.e_n () in
  let width = Option.value (arg "--width") ~default:(Layout.width square) in
  let height = Option.value (arg "--height") ~default:(Layout.height square) in
  let p, rg =
    Layers.span "est.context_s" (fun () ->
        let p =
          match arg "-p" with
          | Some p -> p
          | None ->
            Signal_prob.maximizing_p ~mode:Signal_prob.Analytic chars
              ~weights:(Histogram.to_array histogram)
        in
        (p, Random_gate.create ~chars ~histogram ~p ()))
  in
  let rgcorr =
    Layers.span "rgcorr.build_s" (fun () -> Rg_correlation.create ~chars ~rg ~p ())
  in
  let ctx = Estimate.context_with ~corr ~rgcorr ~histogram ~p () in
  let spec = { Estimate.histogram; n = c.Gen.e_n; width; height } in
  let r, dt =
    Common.timed (fun () ->
        Estimate.run ~method_:(method_of c.Gen.e_method) ~with_vt:c.Gen.e_vt ctx spec)
  in
  if !Layers.on then Layers.add (Probe.tier_span r.Estimate.method_used) dt;
  String.concat ""
    [ Printf.sprintf "early-mode estimate (%d gates on %.0f x %.0f um)\n" c.Gen.e_n
        width height;
      Printf.sprintf "  gates          : %d\n" r.Estimate.n;
      Printf.sprintf "  mean leakage   : %.4g nA (%.4g uA)\n" r.Estimate.mean
        (r.Estimate.mean /. 1000.0);
      Printf.sprintf "  std deviation  : %.4g nA (%.2f%% of mean)\n" r.Estimate.std
        (100.0 *. r.Estimate.std /. r.Estimate.mean);
      Printf.sprintf "  mean + 3 sigma : %.4g nA\n"
        (r.Estimate.mean +. (3.0 *. r.Estimate.std));
      Printf.sprintf "  method         : %s\n" r.Estimate.method_used;
      Printf.sprintf "  Vt mean factor : %.4f\n" r.Estimate.vt_mean_factor ]

let library () =
  Layers.span "cells.characterize_s" (fun () ->
      Characterize.characterize_library ~param:Process_param.default_channel_length
        ~seed:1729 ())

(* Spawns the commands until time is up; returns (command, sample,
   stdout) in order. *)
let spawn_phase ~seconds cmds =
  let out = Common.path "estimate.out" in
  timed_loop ~seconds cmds (fun (c : Gen.estimate_cmd) ->
      let s = run_checked ~stdout:out "rgleak estimate" c.Gen.e_args in
      (c, s, Common.read_file out))

let check_outputs ~chars ran =
  List.iter
    (fun ((c : Gen.estimate_cmd), _, text) ->
      ignore
        (Metrics.attempt (replica ~chars c = text)
           ("estimate output differs from Estimate.run: "
           ^ String.concat " " c.Gen.e_args)))
    ran

let run ~seed ~seconds ~traced =
  let cmds = Gen.estimate_cmds ~seed ~cycles:20 in
  (* Set-up: warm-up spawns of a fixed small estimate (binary and page
     cache hot) before the timed phase. *)
  let setup =
    List.init 2 (fun _ -> (run_checked "warm-up estimate" [ "estimate"; "-n"; "2000" ]).wall)
  in
  if not traced then begin
    let ran = spawn_phase ~seconds cmds in
    check_outputs ~chars:(Characterize.default_library ()) ran;
    let mains = List.map (fun (_, s, _) -> s) ran in
    let heavy =
      List.filter_map
        (fun ((c : Gen.estimate_cmd), s, _) -> if c.Gen.e_heavy then Some s.wall else None)
        ran
    in
    report_cli ~setup ~limit_s
      ~scenarios_per_s:
        (float_of_int (List.length ran) /. Common.sum (List.map (fun s -> s.wall) mains))
      ~cmds:mains ~reqs:mains ~heavy ~peak_kib:(peak mains)
  end
  else begin
    let exec = Layers.cli_exec () in
    (* Each command is replayed five times below, so the traced run
       spawns a quarter of the timed phase's commands. *)
    let ran = spawn_phase ~seconds:(seconds /. 4.0) cmds in
    let user_wall = Common.sum (List.map (fun (_, s, _) -> s.wall) ran) in
    (* Each spawned command characterizes the library afresh; so does
       each replica. *)
    let off_wall, on_wall, snap =
      Layers.passes (fun () ->
          List.iter
            (fun ((c : Gen.estimate_cmd), _, text) ->
              let chars = library () in
              ignore
                (Metrics.attempt (replica ~chars c = text)
                   "estimate replica differs from the command's output"))
            ran)
    in
    let attributed = Layers.attributed () in
    Layers.finish ~user_wall ~attributed
      ~exec_total:(exec *. float_of_int (List.length ran))
      ~off_wall ~on_wall snap
  end
