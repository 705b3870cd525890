(* Tests for the analysis extensions: process corners, the
   variance-by-distance profile, and parallel characterization. *)

open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core
open Testutil

let param = Process_param.default_channel_length
let corr = Corr_model.create (Corr_model.Spherical { dmax = 120.0 }) param

let hist =
  lazy
    (Histogram.of_weights
       [ ("INV_X1", 20.0); ("NAND2_X1", 18.0); ("DFF_X1", 9.0) ])

let spec =
  lazy
    { Estimate.histogram = Lazy.force hist; n = 2500; width = 200.0; height = 200.0 }

(* ---- corners ---- *)

let corner_results =
  lazy
    (Corners.analyze
       ~corners:
         [ Corners.typical;
           { Corners.name = "FF/125C"; l_shift_sigmas = -3.0; temp_c = 125.0 } ]
       ~l_points:33 ~p:0.5 ~param ~corr ~spec:(Lazy.force spec) ())

let test_corner_ordering () =
  match Lazy.force corner_results with
  | [ tt; ff ] ->
    check_true "fast-hot corner leaks much more"
      (ff.Corners.mean > 3.0 *. tt.Corners.mean);
    check_true "fast-hot corner has larger spread" (ff.Corners.std > tt.Corners.std);
    check_rel ~tol:1e-9 "p3sigma consistency"
      (tt.Corners.mean +. (3.0 *. tt.Corners.std))
      tt.Corners.p3sigma
  | _ -> Alcotest.fail "expected two corner results"

let test_corner_worst () =
  let results = Lazy.force corner_results in
  let w = Corners.worst results in
  check_true "worst is the fast-hot corner" (w.Corners.corner.Corners.name = "FF/125C");
  List.iter
    (fun r -> check_true "worst dominates" (w.Corners.p3sigma >= r.Corners.p3sigma))
    results

let test_standard_corner_set () =
  check_close "four standard corners" 4.0
    (float_of_int (List.length Corners.standard_corners));
  check_true "typical corner has no shift"
    (Corners.typical.Corners.l_shift_sigmas = 0.0)

(* ---- variance profile ---- *)

let profile =
  lazy
    (let chars = Characterize.default_library () in
     let ctx =
       Estimate.context ~p:0.5 ~chars ~corr ~histogram:(Lazy.force hist) ()
     in
     ( Variance_profile.compute ~corr ~rgcorr:(Estimate.correlation ctx) ~n:2500
         ~width:200.0 ~height:200.0 (),
       ctx ))

let test_profile_monotone_to_one () =
  let prof, _ = Lazy.force profile in
  let prev = ref 0.0 in
  Array.iter
    (fun share ->
      check_true "cumulative share non-decreasing" (share >= !prev -. 1e-12);
      prev := share)
    prof.Variance_profile.cumulative_share;
  check_rel ~tol:1e-9 "ends at 1" 1.0
    prof.Variance_profile.cumulative_share.(Array.length prof.Variance_profile.cumulative_share - 1)

let test_profile_total_matches_estimator () =
  let prof, ctx = Lazy.force profile in
  let r =
    Estimator_integral.rect_2d ~corr ~rgcorr:(Estimate.correlation ctx) ~n:2500
      ~width:200.0 ~height:200.0 ()
  in
  (* the profile total additionally carries the exact diagonal term *)
  let rg = Estimate.random_gate ctx in
  let expected = r.Estimator_integral.variance +. (2500.0 *. rg.Random_gate.variance) in
  check_rel ~tol:5e-3 "profile total consistent with Eq. 20 + diagonal"
    expected prof.Variance_profile.total_variance

let test_profile_diagonal_share () =
  let prof, _ = Lazy.force profile in
  check_in_range "diagonal share small but positive" ~lo:1e-5 ~hi:0.2
    prof.Variance_profile.diagonal_share

let test_profile_radius_for_share () =
  let prof, _ = Lazy.force profile in
  let r50 = Variance_profile.radius_for_share prof ~share:0.5 in
  let r90 = Variance_profile.radius_for_share prof ~share:0.9 in
  check_true "quantile radii ordered" (r50 <= r90);
  check_true "radii within the die diagonal"
    (r90 <= sqrt ((200.0 ** 2.0) +. (200.0 ** 2.0)) +. 1e-9)

let test_profile_correlation_range_effect () =
  (* without a D2D floor, a shorter correlation range concentrates the
     variance at smaller separations (with a floor, the floor's mass at
     long range dominates the comparison instead) *)
  let chars = Characterize.default_library () in
  let wid_param =
    Process_param.make ~name:"wid" ~nominal:90.0 ~sigma_d2d:0.0
      ~sigma_wid:(Process_param.sigma_total param)
  in
  let prof_of dmax =
    let corr = Corr_model.create (Corr_model.Spherical { dmax }) wid_param in
    let ctx = Estimate.context ~p:0.5 ~chars ~corr ~histogram:(Lazy.force hist) () in
    Variance_profile.compute ~corr ~rgcorr:(Estimate.correlation ctx) ~n:2500
      ~width:200.0 ~height:200.0 ()
  in
  let share_at prof r =
    let idx = ref 0 in
    Array.iteri
      (fun i radius -> if radius <= r then idx := i)
      prof.Variance_profile.radii;
    prof.Variance_profile.cumulative_share.(!idx)
  in
  let short = prof_of 40.0 and long = prof_of 160.0 in
  check_true "short WID range concentrates variance at 60 um"
    (share_at short 60.0 > share_at long 60.0)

(* ---- parallel characterization ---- *)

let test_parallel_determinism () =
  let settings = (17, 100) in
  let l_points, mc_samples = settings in
  let seq =
    Characterize.characterize_library ~l_points ~mc_samples ~param ~seed:5 ()
  in
  let par =
    Characterize.characterize_library ~l_points ~mc_samples ~jobs:3 ~param
      ~seed:5 ()
  in
  Array.iteri
    (fun i (a : Characterize.cell_char) ->
      Array.iteri
        (fun s (sa : Characterize.state_char) ->
          let sb = par.(i).Characterize.states.(s) in
          check_close
            (Printf.sprintf "cell %d state %d identical analytic" i s)
            sa.Characterize.mu_analytic sb.Characterize.mu_analytic;
          check_close
            (Printf.sprintf "cell %d state %d identical mc" i s)
            (Option.get sa.Characterize.mc).Characterize.mu_mc
            (Option.get sb.Characterize.mc).Characterize.mu_mc)
        a.Characterize.states)
    seq

let test_corner_input_validation () =
  check_true "worst of empty rejected"
    (try
       ignore (Corners.worst []);
       false
     with Invalid_argument _ -> true);
  let rng = Rng.create ~seed:1 () in
  ignore rng;
  check_true "profile rejects bad points"
    (try
       let chars = Characterize.default_library () in
       let ctx = Estimate.context ~p:0.5 ~chars ~corr ~histogram:(Lazy.force hist) () in
       ignore
         (Variance_profile.compute ~points:1 ~corr
            ~rgcorr:(Estimate.correlation ctx) ~n:100 ~width:40.0 ~height:40.0 ());
       false
     with Invalid_argument _ -> true)

(* ---- leakage map ---- *)

let map_inputs =
  lazy
    (let chars = Characterize.default_library () in
     let rg =
       Random_gate.create ~chars ~histogram:(Lazy.force hist) ~p:0.5 ()
     in
     rg)

let test_map_total_matches_chip_mean () =
  let rg = Lazy.force map_inputs in
  let map =
    Leakage_map.compute ~tiles:8 ~samples:600 ~rg ~corr ~n:10_000 ~width:400.0
      ~height:400.0 ()
  in
  check_rel ~tol:0.06 "tile totals reproduce the chip mean"
    (10_000.0 *. rg.Random_gate.mu)
    (Leakage_map.total_mean map)

let test_map_shape_and_ordering () =
  let rg = Lazy.force map_inputs in
  let map =
    Leakage_map.compute ~tiles:6 ~samples:200 ~rg ~corr ~n:3600 ~width:240.0
      ~height:240.0 ()
  in
  check_close "tile count" 36.0 (float_of_int (Array.length map.Leakage_map.mean));
  Array.iteri
    (fun i m ->
      check_true "p95 at or above the mean" (map.Leakage_map.p95.(i) >= m *. 0.99))
    map.Leakage_map.mean;
  check_true "hotspot ratio at least 1" (map.Leakage_map.hotspot_ratio >= 1.0);
  let m, p = Leakage_map.tile map ~ix:0 ~iy:0 in
  check_true "tile accessor consistent" (p >= m *. 0.99)

let test_map_determinism () =
  let rg = Lazy.force map_inputs in
  let run () =
    Leakage_map.compute ~tiles:4 ~samples:50 ~seed:9 ~rg ~corr ~n:1600
      ~width:160.0 ~height:160.0 ()
  in
  let a = run () and b = run () in
  check_close "deterministic hotspot ratio" a.Leakage_map.hotspot_ratio
    b.Leakage_map.hotspot_ratio

let test_map_rejects_non_psd () =
  let rg = Lazy.force map_inputs in
  let bad = Corr_model.create (Corr_model.Linear { dmax = 120.0 }) param in
  check_true "non-PSD family rejected"
    (try
       ignore
         (Leakage_map.compute ~rg ~corr:bad ~n:1000 ~width:100.0 ~height:100.0 ());
       false
     with Invalid_argument _ -> true)

let test_map_render () =
  let rg = Lazy.force map_inputs in
  let map =
    Leakage_map.compute ~tiles:4 ~samples:50 ~rg ~corr ~n:1600 ~width:160.0
      ~height:160.0 ()
  in
  let s = Leakage_map.render map in
  (* header line + 4 rows of 4 glyphs *)
  check_close "render has 5 lines" 5.0
    (float_of_int
       (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s))))

let suite =
  ( "analysis",
    [
      slow_case "corner ordering" test_corner_ordering;
      slow_case "worst corner" test_corner_worst;
      case "standard corner set" test_standard_corner_set;
      slow_case "profile monotone to one" test_profile_monotone_to_one;
      slow_case "profile total vs estimator" test_profile_total_matches_estimator;
      slow_case "profile diagonal share" test_profile_diagonal_share;
      slow_case "profile quantile radii" test_profile_radius_for_share;
      slow_case "profile range effect" test_profile_correlation_range_effect;
      slow_case "parallel characterization determinism" test_parallel_determinism;
      case "input validation" test_corner_input_validation;
      slow_case "map total vs chip mean" test_map_total_matches_chip_mean;
      slow_case "map shape and ordering" test_map_shape_and_ordering;
      case "map determinism" test_map_determinism;
      case "map rejects non-PSD family" test_map_rejects_non_psd;
      case "map render" test_map_render;
    ] )
