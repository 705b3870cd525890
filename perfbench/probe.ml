(* Decomposed in-process replay of batch scenarios, for the traced
   runs of batch-sweep and serve-mixed: the same public calls the batch
   engine makes for a scenario, one span per layer, on a private copy of
   the warm cache.  Each replayed result must equal the program's record
   for that scenario, which shows the replay did the same work. *)

open Rgleak_core
module Batch = Rgleak_cache.Batch
module Memo = Rgleak_cache.Memo
module Cache = Rgleak_cache.Cache
module Vjson = Rgleak_valid.Vjson
module Histogram = Rgleak_circuit.Histogram
module Layout = Rgleak_circuit.Layout
module Generator = Rgleak_circuit.Generator
module Placer = Rgleak_circuit.Placer
module Signal_prob = Rgleak_cells.Signal_prob
module Characterize = Rgleak_cells.Characterize
module Corr_model = Rgleak_process.Corr_model
module Process_param = Rgleak_process.Process_param
module Rng = Rgleak_num.Rng

let span = Layers.span

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* One part of a scenario's canonical key ("mix=…", "p=…", "corr=…"):
   the batch engine derives its cache keys from the same parts. *)
let part scen prefix =
  List.find (starts_with prefix) (Batch.scenario_key_parts scen)

let ctx_parts scen =
  Memo.chars_key_parts ~temp_celsius:scen.Batch.s_temp
  @ [ part scen "mix="; part scen "p="; "mode=analytic"; "mapping=exact" ]

(* Near-square site grid at the default 4 µm pitch unless the scenario
   gives its dimensions, as the batch engine lays scenarios out. *)
let layout_of scen =
  let n = scen.Batch.s_n in
  let width, height =
    match scen.Batch.s_dims with
    | Some (w, h) -> (w, h)
    | None ->
      let area = 16.0 *. float_of_int n in
      (sqrt (area *. scen.Batch.s_aspect), sqrt (area /. scen.Batch.s_aspect))
  in
  Layout.of_dims ~n ~width ~height

let chars_get_s cache temp_celsius =
  let key = Cache.key (Memo.chars_key_parts ~temp_celsius) in
  snd (Common.timed (fun () -> ignore (Cache.get cache ~kind:"chars" ~version:1 ~key)))

type ctx = {
  chars : Characterize.cell_char array;
  histogram : Histogram.t;
  p : float;
  rgcorr : Rg_correlation.t;
}

let context cache tbl scen =
  let parts = ctx_parts scen in
  let k = String.concat "\x00" parts in
  match Hashtbl.find_opt tbl k with
  | Some c -> c
  | None ->
    let temp_celsius = scen.Batch.s_temp in
    (* Warm characterization = cache read + payload decode; the decode
       share is the difference. *)
    let get_s = chars_get_s cache temp_celsius in
    let chars, warm_s =
      Common.timed (fun () -> Memo.characterization ~cache ~temp_celsius ())
    in
    if !Layers.on then Layers.add "cells.char_decode_s" (warm_s -. get_s);
    let histogram = Histogram.of_weights scen.Batch.s_mix in
    let p, rg =
      span "est.context_s" (fun () ->
          let p =
            match scen.Batch.s_p with
            | Some p -> p
            | None ->
              Signal_prob.maximizing_p chars ~weights:(Histogram.to_array histogram)
          in
          (p, Random_gate.create ~chars ~histogram ~p ()))
    in
    let rgkey = Cache.key ("rgcorr" :: parts) in
    let hit = Cache.get cache ~kind:"rgcorr" ~version:1 ~key:rgkey <> None in
    let rgcorr =
      span (if hit then "memo.rgcorr_decode_s" else "rgcorr.build_s") (fun () ->
          Memo.correlation ~cache ~chars ~rg ~p ~key_parts:parts ())
    in
    let c = { chars; histogram; p; rgcorr } in
    Hashtbl.replace tbl k c;
    c

let tier_span method_used =
  if starts_with "linear" method_used then "est.linear_s"
  else if starts_with "polar" method_used then "est.polar_s"
  else "est.int2d_s"

let placed scen histogram layout =
  span "circuit.place_s" (fun () ->
      let rng = Rng.stream ~seed:scen.Batch.s_seed 0 in
      let netlist = Generator.random_netlist ~histogram ~n:scen.Batch.s_n ~rng () in
      Placer.place ~strategy:Placer.Random ~rng netlist layout)

let exact_pairs = ref 0

(* The scenario's headline numbers, as the record prints them. *)
let replay cache tbl scen =
  let c = context cache tbl scen in
  let corr = Corr_model.create scen.Batch.s_family Process_param.default_channel_length in
  let layout = layout_of scen in
  let mc_seed = scen.Batch.s_seed + 104729 in
  match scen.Batch.s_tier with
  | Batch.Auto | Batch.Linear | Batch.Integral_2d | Batch.Integral_polar ->
    let t = scen.Batch.s_tier in
    let spec =
      { Estimate.histogram = c.histogram; n = scen.Batch.s_n;
        width = Layout.width layout; height = Layout.height layout }
    in
    let method_ =
      match t with
      | Batch.Linear -> Estimate.Linear
      | Batch.Integral_2d -> Estimate.Integral_2d
      | Batch.Integral_polar -> Estimate.Integral_polar
      | _ -> Estimate.Auto
    in
    let ctx = Estimate.context_with ~corr ~rgcorr:c.rgcorr ~histogram:c.histogram ~p:c.p () in
    let est lin_memo =
      let r, dt =
        Common.timed (fun () ->
            Estimate.run ?lin_memo ~method_ ~with_vt:scen.Batch.s_vt ctx spec)
      in
      if !Layers.on then Layers.add (tier_span r.Estimate.method_used) dt;
      (r, dt)
    in
    let uses_linear = t = Batch.Linear || (t = Batch.Auto && scen.Batch.s_n <= 2000) in
    let r =
      if uses_linear then begin
        let key_parts =
          ctx_parts scen
          @ [ part scen "corr=";
              Printf.sprintf "site=%h:%h" layout.Layout.site_w layout.Layout.site_h ]
        in
        let (r, est_s), all_s =
          Common.timed (fun () ->
              Memo.with_linear_memo ~cache ~key_parts ~rows:(Layout.rows layout)
                ~cols:layout.Layout.cols (fun memo -> est (Some memo)))
        in
        if !Layers.on then Layers.add "memo.linmemo_s" (all_s -. est_s);
        r
      end
      else fst (est None)
    in
    [ ("mean", r.Estimate.mean); ("std", r.Estimate.std) ]
  | Batch.Exact ->
    let placed = placed scen c.histogram layout in
    let r = span "exact.estimate_s" (fun () -> Estimator_exact.estimate ~corr ~rgcorr:c.rgcorr placed) in
    let n = scen.Batch.s_n in
    exact_pairs := !exact_pairs + (n * (n - 1) / 2);
    let mean =
      if scen.Batch.s_vt then r.Estimator_exact.mean *. Vt_correction.mean_factor ()
      else r.Estimator_exact.mean
    in
    [ ("mean", mean); ("std", r.Estimator_exact.std) ]
  | Batch.Mc ->
    let placed = placed scen c.histogram layout in
    let mc = span "mc.prepare_s" (fun () -> Mc_reference.prepare ~chars:c.chars ~corr ~p:c.p placed) in
    let mean, std =
      span "mc.moments_s" (fun () ->
          Mc_reference.moments_stream mc ~seed:mc_seed ~count:scen.Batch.s_replicas)
    in
    [ ("mean", mean); ("std", std) ]
  | Batch.Tail ->
    let placed = placed scen c.histogram layout in
    let mc = span "mc.prepare_s" (fun () -> Mc_reference.prepare ~chars:c.chars ~corr ~p:c.p placed) in
    let r =
      span "tail.estimate_s" (fun () ->
          let budget = Option.get scen.Batch.s_budget *. 1000.0 in
          let delta =
            match scen.Batch.s_shift with
            | Some d -> d
            | None -> Mc_reference.calibrate_shift mc ~budget
          in
          let shift = Mc_reference.uniform_shift mc ~delta in
          Tail.estimate ~mc ~budget ~shift ~seed:mc_seed ~replicas:scen.Batch.s_replicas ())
    in
    [ ("p_exceed", r.Tail.p_exceed); ("ess", r.Tail.ess) ]

let num_text x = Vjson.to_string (Vjson.Num x)

(* Replays [lines] (manifest lines, each with the program's record) in
   order; returns the number of replays that disagree with their record.
   Also times one full library characterization and re-puts the decoded
   characterization payloads, for the layers only set-up pays. *)
let run ~cache_dir ~scratch_dir lines_records =
  Layers.on := true;
  Fun.protect ~finally:(fun () -> Layers.on := false) @@ fun () ->
  let cache = Cache.open_ ~dir:cache_dir () in
  let tbl = Hashtbl.create 8 in
  exact_pairs := 0;
  let bad = ref 0 in
  List.iter
    (fun (line, record) ->
      let scen = List.hd (Batch.parse_manifest line) in
      let fields = replay cache tbl scen in
      let rec_json = Vjson.parse record in
      List.iter
        (fun (k, v) ->
          match Vjson.mem k rec_json with
          | Some r when Vjson.to_string r = num_text v -> ()
          | _ -> incr bad)
        fields)
    lines_records;
  Rgleak_obs.Obs.reset ();
  Rgleak_obs.Obs.set_enabled true;
  let lib =
    span "cells.characterize_s" (fun () ->
        Characterize.characterize_library ~param:Process_param.default_channel_length
          ~seed:1729 ())
  in
  Rgleak_obs.Obs.set_enabled false;
  Metrics.set "cells.states"
    (float_of_int (Layers.counter (Rgleak_obs.Obs.snapshot ()) "characterize.states"));
  let scratch = Cache.open_ ~dir:scratch_dir () in
  let payload = Rgleak_cells.Char_io.to_string lib in
  let _, put_s =
    Common.timed (fun () ->
        Cache.put scratch ~kind:"chars" ~version:1 ~key:(Cache.key [ "probe" ]) payload)
  in
  Metrics.set "cache.put_s" put_s;
  let ex = Layers.total "exact.estimate_s" in
  if ex > 0.0 then Metrics.set "exact.pairs_per_s" (float_of_int !exact_pairs /. ex);
  !bad
