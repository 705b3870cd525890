open Rgleak_num
open Rgleak_process
open Testutil

let param = Process_param.default_channel_length

let test_param_accessors () =
  check_close ~tol:1e-12 "total variance" 18.0 (Process_param.variance_total param);
  check_rel ~tol:1e-12 "total sigma" (sqrt 18.0) (Process_param.sigma_total param);
  check_close ~tol:1e-12 "d2d fraction (equal split)" 0.5
    (Process_param.d2d_fraction param)

let test_param_validation () =
  Alcotest.check_raises "negative sigma rejected"
    (Invalid_argument "Process_param.make: sigmas must be non-negative")
    (fun () ->
      ignore
        (Process_param.make ~name:"x" ~nominal:1.0 ~sigma_d2d:(-1.0)
           ~sigma_wid:1.0));
  Alcotest.check_raises "non-positive nominal rejected"
    (Invalid_argument "Process_param.make: nominal must be positive") (fun () ->
      ignore
        (Process_param.make ~name:"x" ~nominal:0.0 ~sigma_d2d:1.0 ~sigma_wid:1.0))

let all_families =
  [
    ("exponential", Corr_model.Exponential { range = 100.0 });
    ("gaussian", Corr_model.Gaussian { range = 100.0 });
    ("linear", Corr_model.Linear { dmax = 200.0 });
    ("spherical", Corr_model.Spherical { dmax = 200.0 });
    ( "truncated-exponential",
      Corr_model.Truncated_exponential { range = 80.0; dmax = 200.0 } );
  ]

let test_families_valid () =
  List.iter
    (fun (name, fam) ->
      let m = Corr_model.create fam param in
      check_true
        (name ^ " is a valid correlation")
        (Corr_model.is_valid_correlation m ~samples:500 ~upto:1000.0))
    all_families

let test_total_at_zero () =
  List.iter
    (fun (name, fam) ->
      let m = Corr_model.create fam param in
      check_close ~tol:1e-12 (name ^ " rho(0) = 1") 1.0 (Corr_model.total m 0.0))
    all_families

let test_floor_reached () =
  List.iter
    (fun (name, fam) ->
      let m = Corr_model.create fam param in
      let far = Corr_model.total m 1e7 in
      check_close ~tol:1e-3
        (name ^ " approaches the D2D floor")
        (Corr_model.floor m) far)
    all_families

let test_dmax_semantics () =
  let lin = Corr_model.create (Corr_model.Linear { dmax = 200.0 }) param in
  (match Corr_model.wid_dmax lin with
  | Some d -> check_close "linear dmax" 200.0 d
  | None -> Alcotest.fail "linear family must report dmax");
  check_close ~tol:1e-12 "wid zero at dmax" 0.0 (Corr_model.wid lin 200.0);
  check_close ~tol:1e-12 "wid zero beyond dmax" 0.0 (Corr_model.wid lin 300.0);
  let expo = Corr_model.create (Corr_model.Exponential { range = 100.0 }) param in
  check_true "exponential has no dmax" (Corr_model.wid_dmax expo = None)

let test_truncated_exponential_endpoints () =
  let m =
    Corr_model.create
      (Corr_model.Truncated_exponential { range = 50.0; dmax = 150.0 })
      param
  in
  check_close ~tol:1e-12 "starts at 1" 1.0 (Corr_model.wid m 0.0);
  check_close ~tol:1e-12 "exactly 0 at dmax" 0.0 (Corr_model.wid m 150.0)

let test_total_formula =
  qcheck ~count:300 "total = floor + (1-floor) * wid"
    QCheck2.Gen.(float_range 0.0 500.0)
    (fun d ->
      let m = Corr_model.create (Corr_model.Linear { dmax = 200.0 }) param in
      let expected =
        Corr_model.floor m +. ((1.0 -. Corr_model.floor m) *. Corr_model.wid m d)
      in
      Float.abs (Corr_model.total m d -. expected) < 1e-12)

let test_invalid_family () =
  Alcotest.check_raises "non-positive range"
    (Invalid_argument "Corr_model: range must be positive") (fun () ->
      ignore (Corr_model.create (Corr_model.Exponential { range = 0.0 }) param))

(* The spec grammar: every family round-trips through its exact (%h)
   spelling, reports keep the short %g one, and a zero, negative or
   non-finite number or a missing or extra field is invalid input. *)
let test_spec_round_trip () =
  List.iter
    (fun f ->
      let spec = Corr_model.to_spec ~num:(Printf.sprintf "%h") f in
      check_true ("round trip " ^ spec) (Corr_model.of_spec spec = f))
    [
      Corr_model.Linear { dmax = 120.0 };
      Corr_model.Spherical { dmax = 0.1 };
      Corr_model.Exponential { range = 60.5 };
      Corr_model.Gaussian { range = 1e-3 };
      Corr_model.Truncated_exponential { range = 60.0; dmax = 1.0 /. 3.0 };
    ];
  Alcotest.(check string)
    "%g spelling" "texp:60:120"
    (Corr_model.to_spec ~num:(Printf.sprintf "%g")
       (Corr_model.of_spec "texp:60.0:1.2e2"))

let test_spec_rejects () =
  List.iter
    (fun spec ->
      match Corr_model.of_spec spec with
      | _ -> Alcotest.failf "correlation spec %S accepted" spec
      | exception Guard.Error (Guard.Invalid_input _) -> ())
    [
      "linear:0"; "spherical:-5"; "exp:-0"; "gauss:nan"; "exp:inf";
      "texp:60:-inf"; "texp:nan:120"; "linear:abc"; "linear"; "linear:";
      "spherical:120:5"; "texp:60"; "texp:60:120:1"; "cubic:10"; "";
    ]

let test_sampler_marginals () =
  let m = Corr_model.create (Corr_model.Linear { dmax = 100.0 }) param in
  let locs =
    [| { Variation.x = 0.0; y = 0.0 }; { Variation.x = 30.0; y = 40.0 };
       { Variation.x = 500.0; y = 0.0 } |]
  in
  let sampler = Variation.prepare m locs in
  check_close "location count" 3.0 (float_of_int (Variation.locations_count sampler));
  let rng = Rng.create ~seed:42 () in
  let accs = Array.init 3 (fun _ -> Stats.Acc.create ()) in
  let cov01 = Stats.Cov_acc.create () and cov02 = Stats.Cov_acc.create () in
  for _ = 1 to 40_000 do
    let v = Variation.sample sampler rng in
    Array.iteri (fun i acc -> Stats.Acc.add acc v.(i)) accs;
    Stats.Cov_acc.add cov01 v.(0) v.(1);
    Stats.Cov_acc.add cov02 v.(0) v.(2)
  done;
  Array.iteri
    (fun i acc ->
      check_rel ~tol:0.005
        (Printf.sprintf "marginal mean %d" i)
        90.0 (Stats.Acc.mean acc);
      check_rel ~tol:0.03
        (Printf.sprintf "marginal std %d" i)
        (sqrt 18.0) (Stats.Acc.std acc))
    accs;
  (* locations 0-1 are 50 um apart: wid corr 0.5, total = .5 + .5*.5 = .75;
     locations 0-2 beyond dmax: total = floor = 0.5 *)
  check_close ~tol:0.02 "near-pair total correlation" 0.75
    (Stats.Cov_acc.correlation cov01);
  check_close ~tol:0.02 "far-pair floor correlation" 0.5
    (Stats.Cov_acc.correlation cov02)

let test_sample_pair_correlation () =
  let m = Corr_model.create (Corr_model.Linear { dmax = 100.0 }) param in
  let rng = Rng.create ~seed:43 () in
  let acc = Stats.Cov_acc.create () in
  for _ = 1 to 60_000 do
    let v1, v2 = Variation.sample_pair m ~rho_wid:0.4 rng in
    Stats.Cov_acc.add acc v1 v2
  done;
  (* total correlation = 0.5 + 0.5*0.4 = 0.7 *)
  check_close ~tol:0.015 "pair total correlation" 0.7
    (Stats.Cov_acc.correlation acc)

let test_distance () =
  check_close ~tol:1e-12 "3-4-5 triangle" 5.0
    (Variation.distance { Variation.x = 0.0; y = 0.0 }
       { Variation.x = 3.0; y = 4.0 })

let suite =
  ( "process",
    [
      case "parameter accessors" test_param_accessors;
      case "parameter validation" test_param_validation;
      case "families are valid correlations" test_families_valid;
      case "rho(0) = 1" test_total_at_zero;
      case "floor at large distance" test_floor_reached;
      case "dmax semantics" test_dmax_semantics;
      case "truncated exponential endpoints" test_truncated_exponential_endpoints;
      test_total_formula;
      case "invalid family rejected" test_invalid_family;
      slow_case "sampler marginals and correlation" test_sampler_marginals;
      case "sample_pair correlation" test_sample_pair_correlation;
      case "distance" test_distance;
      case "spec round trip" test_spec_round_trip;
      case "malformed specs rejected" test_spec_rejects;
    ] )
