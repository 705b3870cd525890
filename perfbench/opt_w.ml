(* optimize-20k: spawned [rgleak optimize -n 20000] with a warm
   [--cache-dir], alternating two seeded (seed, budget) configurations. *)

open Rgleak_core
module Batch = Rgleak_cache.Batch
module Cache = Rgleak_cache.Cache
module Memo = Rgleak_cache.Memo
module Vjson = Rgleak_valid.Vjson
module Histogram = Rgleak_circuit.Histogram
module Generator = Rgleak_circuit.Generator
module Placer = Rgleak_circuit.Placer
module Netlist = Rgleak_circuit.Netlist
module Signal_prob = Rgleak_cells.Signal_prob
module Corr_model = Rgleak_process.Corr_model
module Process_param = Rgleak_process.Process_param
module Rng = Rgleak_num.Rng

let limit_s = 10.0
let n = 20000

(* The subcommand's defaults. *)
let mix = "INV_X1:20,NAND2_X1:18,NOR2_X1:8,XOR2_X1:4,DFF_X1:9"
let corr = "spherical:120"

(* In-process replica of [rgleak optimize]: the public calls the
   subcommand makes, returning the report fields it is checked on. *)
let replica ~cache_dir (opt_seed, budget) =
  let span = Layers.span in
  let scen =
    List.hd
      (Batch.parse_manifest
         (Gen.json_line [ ("n", Gen.num_i n); ("mix", Gen.str mix); ("corr", Gen.str corr) ]))
  in
  let histogram = Histogram.of_weights scen.Batch.s_mix in
  let corr_model = Corr_model.create scen.Batch.s_family Process_param.default_channel_length in
  let chars = Cli_w.library () in
  let p =
    span "est.context_s" (fun () ->
        Signal_prob.maximizing_p chars ~weights:(Histogram.to_array histogram))
  in
  let placed =
    span "circuit.place_s" (fun () ->
        Generator.random_placed ~histogram ~n ~rng:(Rng.create ~seed:opt_seed ()) ())
  in
  let rgcorr =
    span "rgcorr.build_s" (fun () ->
        let rg = Random_gate.create ~chars ~histogram ~p () in
        Rg_correlation.create ~chars ~rg ~p ())
  in
  let distance_points = 512 in
  let cov =
    span "memo.deltacov_s" (fun () ->
        let cache = Cache.open_ ~dir:cache_dir () in
        let used =
          Array.of_list
            (List.sort_uniq compare
               (Array.to_list
                  (Array.map
                     (fun inst -> inst.Netlist.cell_index)
                     placed.Placer.netlist.Netlist.instances)))
        in
        let dstep = Estimator_exact.distance_grid ~distance_points placed.Placer.layout in
        Memo.delta_tables ~cache ~corr:corr_model ~rgcorr ~used ~distance_points ~dstep
          ~key_parts:[ "corr=" ^ corr ] ())
  in
  let st =
    span "delta.create_s" (fun () ->
        Delta.create ~distance_points ~cov ~flavors:(Array.make n Vt_correction.Lvt)
          ~corr:corr_model ~rgcorr placed)
  in
  let r = span "opt.run_s" (fun () -> Optimize.run ~budget:(float_of_int budget) st) in
  [ ("swaps", float_of_int (List.length r.Optimize.moves));
    ("spent", r.Optimize.spent);
    ("exact_initial_mean", r.Optimize.initial.Delta.exact.Delta.mean);
    ("exact_final_mean", r.Optimize.final.Delta.exact.Delta.mean);
    ("exact_final_std", r.Optimize.final.Delta.exact.Delta.std) ]

let agrees fields report =
  let doc = Vjson.parse report in
  List.for_all
    (fun (k, v) ->
      match Vjson.mem k doc with
      | Some x -> Vjson.to_string x = Probe.num_text v
      | None -> false)
    fields

let run ~seed ~seconds ~traced =
  let configs = Gen.optimize_configs ~seed in
  (* Set-up: each configuration once, cold, on its own empty cache. *)
  let cold =
    List.mapi
      (fun i cfg ->
        let cache_dir = Common.fresh_dir (Printf.sprintf "opt-cold%d" i) in
        let json = Common.path (Printf.sprintf "opt-ref%d.json" i) in
        let s =
          Cli_w.run_checked "cold rgleak optimize" (Gen.optimize_args ~cache_dir ~json cfg)
        in
        (cfg, s, cache_dir, Common.read_file json))
      configs
  in
  let setup = List.map (fun (_, s, _, _) -> s.Cli_w.wall) cold in
  let _, _, warm, _ = List.nth cold (List.length cold - 1) in
  let size0 = Common.tree_size warm in
  let json = Common.path "opt.json" in
  let warm_run (cfg, _, _, reference) =
    let s = Cli_w.run_checked "rgleak optimize" (Gen.optimize_args ~cache_dir:warm ~json cfg) in
    ignore (Metrics.attempt (Common.read_file json = reference)
              "optimize report differs from the cold run of the same configuration");
    ignore (Metrics.attempt (Common.tree_size warm = size0) "warm optimize grew the cache");
    s
  in
  if not traced then begin
    let runs =
      Cli_w.timed_loop ~seconds
        (List.init 50 (fun i -> List.nth cold (i mod List.length cold)))
        warm_run
    in
    let walls = List.map (fun s -> s.Cli_w.wall) runs in
    Cli_w.report_cli ~setup ~limit_s
      ~scenarios_per_s:(float_of_int (List.length runs) /. Common.sum walls)
      ~cmds:runs ~reqs:runs ~heavy:walls
      ~peak_kib:(Cli_w.peak (runs @ List.map (fun (_, s, _, _) -> s) cold))
  end
  else begin
    let exec = Layers.cli_exec () in
    (* One configuration: the replica below runs five times. *)
    let cold = [ List.hd cold ] in
    let user_wall = Common.sum (List.map (fun c -> (warm_run c).Cli_w.wall) cold) in
    let off_wall, on_wall, snap =
      Layers.passes (fun () ->
          List.iter
            (fun (cfg, _, _, reference) ->
              ignore
                (Metrics.attempt
                   (agrees (replica ~cache_dir:warm cfg) reference)
                   "optimize replica differs from the command's report"))
            cold)
    in
    let attributed = Layers.attributed () in
    let runs = List.length cold in
    Metrics.set ~samples:runs "opt.candidates"
      (float_of_int (Layers.counter snap "opt.candidates" / runs));
    Metrics.set "cache.bytes_read_per_req"
      (float_of_int (Layers.counter snap "cache.bytes_read" / runs));
    (match Layers.hist snap "delta.swap_s" with
    | Some h when h.Rgleak_obs.Obs.h_count > 0 ->
      Metrics.set ~samples:h.Rgleak_obs.Obs.h_count "delta.swap_p50_ms"
        (1000.0 *. Rgleak_obs.Obs.hist_quantile h 0.5)
    | _ -> ());
    let create_s = Layers.total "delta.create_s" in
    if create_s > 0.0 then
      Metrics.set "delta.pairs_per_s"
        (float_of_int (runs * (n * (n - 1) / 2)) /. create_s);
    Layers.finish ~user_wall ~attributed
      ~exec_total:(exec *. float_of_int runs) ~off_wall ~on_wall snap
  end
