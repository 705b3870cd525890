(* Temperature study: how full-chip leakage moves with junction
   temperature, and what the worst process/temperature corner looks
   like.  The statistical model handles within-corner variation; corners
   shift the center (device-model extension: Mosfet.env_at).

     dune exec examples/temperature_study.exe *)

open Rgleak_device
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core

let () =
  let param = Process_param.default_channel_length in
  let corr = Corr_model.create (Corr_model.Spherical { dmax = 120.0 }) param in
  let histogram =
    Histogram.of_weights
      [
        ("INV_X1", 20.0); ("NAND2_X1", 18.0); ("NOR2_X1", 8.0);
        ("XOR2_X1", 4.0); ("DFF_X1", 10.0);
      ]
  in
  let n = 100_000 in
  let layout = Layout.square ~n () in
  let spec =
    {
      Estimate.histogram;
      n;
      width = Layout.width layout;
      height = Layout.height layout;
    }
  in

  Format.printf "full-chip leakage vs junction temperature (%d gates):@." n;
  Format.printf "  %6s %12s %12s %10s@." "T (C)" "mean (uA)" "sigma (uA)"
    "vs 25C";
  let mean_25 = ref 0.0 in
  List.iter
    (fun temp_c ->
      let env = Mosfet.env_at ~temp_k:(273.15 +. temp_c) () in
      let chars =
        Characterize.characterize_library ~l_points:49 ~env ~param ~seed:1729 ()
      in
      let r = Estimate.early ~p:0.5 ~chars ~corr spec in
      if temp_c = 25.0 then mean_25 := r.Estimate.mean;
      Format.printf "  %6.0f %12.1f %12.1f %9.1fx@." temp_c
        (r.Estimate.mean /. 1000.0)
        (r.Estimate.std /. 1000.0)
        (r.Estimate.mean /. !mean_25))
    [ 25.0; 50.0; 75.0; 100.0; 125.0 ];

  Format.printf
    "@.sign-off corner table (process shift x temperature, worst first):@.";
  let results = Corners.analyze ~param ~corr ~spec () in
  Format.printf "%a" Corners.pp results;
  let w = Corners.worst results in
  Format.printf
    "@.the %s corner sets the budget: %.1f uA at mean + 3 sigma -- %.0fx@."
    w.Corners.corner.Corners.name
    (w.Corners.p3sigma /. 1000.0)
    (w.Corners.p3sigma /. !mean_25);
  Format.printf "the typical-corner mean.  Leakage sign-off lives at FF/hot.@."
