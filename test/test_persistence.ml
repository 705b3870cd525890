(* Tests for characterization persistence (Char_io) and the what-if
   sensitivity report. *)

open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core
open Testutil

let param = Process_param.default_channel_length

let small_chars =
  lazy
    (let rng = Rng.create ~seed:121 () in
     Array.map
       (fun cell ->
         Characterize.characterize ~l_points:33 ~mc_samples:200 ~param
           ~rng:(Rng.split rng) cell)
       Library.cells)

(* ---- char_io ---- *)

let mc_equal =
  Option.equal (fun (x : Characterize.mc_moments) (y : Characterize.mc_moments) ->
      Float.abs (x.Characterize.mu_mc -. y.Characterize.mu_mc) < 1e-12
      && Float.abs (x.Characterize.sigma_mc -. y.Characterize.sigma_mc) < 1e-12)

let states_equal (a : Characterize.state_char) (b : Characterize.state_char) =
  a.Characterize.state_index = b.Characterize.state_index
  && Float.abs (a.Characterize.mu_analytic -. b.Characterize.mu_analytic) < 1e-12
  && Float.abs (a.Characterize.sigma_analytic -. b.Characterize.sigma_analytic) < 1e-12
  && mc_equal a.Characterize.mc b.Characterize.mc
  && Float.abs (a.Characterize.fit.Mgf.a -. b.Characterize.fit.Mgf.a) < 1e-12
  && Float.abs (a.Characterize.fit.Mgf.b -. b.Characterize.fit.Mgf.b) < 1e-15
  && Float.abs (a.Characterize.fit.Mgf.c -. b.Characterize.fit.Mgf.c) < 1e-18
  && Interp.size a.Characterize.table = Interp.size b.Characterize.table

let check_roundtrip chars restored =
  check_close "cell count preserved"
    (float_of_int (Array.length chars))
    (float_of_int (Array.length restored));
  Array.iteri
    (fun i (ch : Characterize.cell_char) ->
      let rh = restored.(i) in
      check_true "cell identity"
        (ch.Characterize.cell.Cell.name = rh.Characterize.cell.Cell.name);
      Array.iteri
        (fun s sc ->
          check_true
            (Printf.sprintf "%s state %d roundtrips"
               ch.Characterize.cell.Cell.name s)
            (states_equal sc rh.Characterize.states.(s)))
        ch.Characterize.states)
    chars

let test_string_roundtrip () =
  let chars = Lazy.force small_chars in
  check_true "fixture carries MC moments"
    (chars.(0).Characterize.states.(0).Characterize.mc <> None);
  check_roundtrip chars (Char_io.of_string (Char_io.to_string chars))

let without_mc chars =
  Array.map
    (fun (ch : Characterize.cell_char) ->
      {
        ch with
        Characterize.states =
          Array.map
            (fun sc -> { sc with Characterize.mc = None })
            ch.Characterize.states;
      })
    chars

(* Version 2 marks an absent cross-check with "- -" and reads it back
   as [None], not as placeholder numbers. *)
let test_roundtrip_without_mc () =
  let chars = without_mc (Lazy.force small_chars) in
  let text = Char_io.to_string chars in
  check_true "v2 header" (String.starts_with ~prefix:"rgleak-characterization 2\n" text);
  let restored = Char_io.of_string text in
  check_roundtrip chars restored;
  Array.iter
    (fun (ch : Characterize.cell_char) ->
      Array.iter
        (fun sc -> check_true "no MC after reload" (sc.Characterize.mc = None))
        ch.Characterize.states)
    restored

(* A version 1 file: the MC moments are always present. *)
let v1_payload =
  {|rgleak-characterization 1
param channel-length 90 3 3
cell INV_X1 2
state 0 9.5 3.25 9.4 3.5 9.375 3.4375 1e9 -0.19 0.0003 0.01 3
72 40.5
90 9.25
108 2.125
state 1 20.5 6.5 20.25 7 20 6.75 2e9 -0.18 0.0002 0.02 3
72 80
90 20
108 5
end
|}

let test_reads_v1 () =
  let chars = Char_io.of_string v1_payload in
  check_close "one cell" 1.0 (float_of_int (Array.length chars));
  let st = chars.(0).Characterize.states in
  (match (st.(0).Characterize.mc, st.(1).Characterize.mc) with
  | Some m0, Some m1 ->
    check_close ~tol:0.0 "state 0 mu_mc" 9.375 m0.Characterize.mu_mc;
    check_close ~tol:0.0 "state 0 sigma_mc" 3.4375 m0.Characterize.sigma_mc;
    check_close ~tol:0.0 "state 1 mu_mc" 20.0 m1.Characterize.mu_mc;
    check_close ~tol:0.0 "state 1 sigma_mc" 6.75 m1.Characterize.sigma_mc
  | _ -> Alcotest.fail "v1 MC moments not read");
  check_close ~tol:0.0 "state 0 mu_ref" 9.4 st.(0).Characterize.mu_ref;
  check_close ~tol:0.0 "table point" 9.25 (Characterize.leakage_at st.(0) 90.0);
  (* A v1 file of a real characterization reads back like its v2 form:
     with MC present the two versions differ only in the header. *)
  let chars = Lazy.force small_chars in
  let v2 = Char_io.to_string chars in
  let v1 =
    "rgleak-characterization 1"
    ^ String.sub v2 25 (String.length v2 - 25)
  in
  check_true "relabelled header" (String.starts_with ~prefix:"rgleak-characterization 1\n" v1);
  check_roundtrip chars (Char_io.of_string v1)

let test_tables_roundtrip_numerically () =
  let chars = Lazy.force small_chars in
  let restored = Char_io.of_string (Char_io.to_string chars) in
  let sc = chars.(Library.index_of "NAND2_X1").Characterize.states.(0) in
  let rc = restored.(Library.index_of "NAND2_X1").Characterize.states.(0) in
  List.iter
    (fun l ->
      check_close ~tol:1e-12
        (Printf.sprintf "table value at %g" l)
        (Characterize.leakage_at sc l)
        (Characterize.leakage_at rc l))
    [ 75.0; 82.5; 90.0; 97.5; 105.0 ]

let test_param_roundtrip () =
  let chars = Lazy.force small_chars in
  let restored = Char_io.of_string (Char_io.to_string chars) in
  let p = restored.(0).Characterize.param in
  check_close ~tol:1e-12 "nominal" 90.0 p.Process_param.nominal;
  check_close ~tol:1e-12 "sigma split" 3.0 p.Process_param.sigma_d2d

let test_file_roundtrip () =
  let chars = Lazy.force small_chars in
  let path = Filename.temp_file "rgleak_char" ".txt" in
  Char_io.save ~path chars;
  let restored = Char_io.load ~path in
  Sys.remove path;
  check_close "file roundtrip cell count"
    (float_of_int (Array.length chars))
    (float_of_int (Array.length restored))

let test_format_errors () =
  let expect_error text =
    try
      ignore (Char_io.of_string text);
      false
    with Char_io.Format_error _ -> true
  in
  check_true "empty input rejected" (expect_error "");
  check_true "bad magic rejected" (expect_error "hello 1\n");
  check_true "bad version rejected"
    (expect_error "rgleak-characterization 99\nparam L 90 3 3\nend\n");
  check_true "unknown cell rejected"
    (expect_error
       "rgleak-characterization 1\nparam L 90 3 3\ncell NOPE_X7 2\nend\n");
  check_true "truncated input rejected"
    (expect_error "rgleak-characterization 1\nparam L 90 3 3\ncell INV_X1 2\n");
  let inv_file ~version mc =
    let state i =
      Printf.sprintf "state %d 1 1 1 1 %s 1 -0.1 0 0 2\n80 2\n100 1\n" i mc
    in
    Printf.sprintf "rgleak-characterization %d\nparam L 90 3 3\ncell INV_X1 2\n%s%send\n"
      version (state 0) (state 1)
  in
  check_true "well-formed v1 accepted"
    (not (expect_error (inv_file ~version:1 "1 1")));
  check_true "absent MC accepted in a v2 file"
    (not (expect_error (inv_file ~version:2 "- -")));
  check_true "absent MC rejected in a v1 file"
    (expect_error (inv_file ~version:1 "- -"));
  check_true "half-absent MC rejected"
    (expect_error (inv_file ~version:2 "- 1"))

let test_loaded_chars_estimate_identically () =
  let chars = Lazy.force small_chars in
  let restored = Char_io.of_string (Char_io.to_string chars) in
  let corr = Corr_model.create (Corr_model.Spherical { dmax = 120.0 }) param in
  let hist = Histogram.of_weights [ ("INV_X1", 2.0); ("NAND2_X1", 3.0) ] in
  let spec = { Estimate.histogram = hist; n = 400; width = 80.0; height = 80.0 } in
  let a = Estimate.early ~p:0.5 ~chars ~corr spec in
  let b = Estimate.early ~p:0.5 ~chars:restored ~corr spec in
  check_close ~tol:1e-9 "identical mean" a.Estimate.mean b.Estimate.mean;
  check_close ~tol:1e-9 "identical std" a.Estimate.std b.Estimate.std

(* ---- sensitivity ---- *)

let corr = Corr_model.create (Corr_model.Spherical { dmax = 120.0 }) param

let spec =
  lazy
    {
      Estimate.histogram =
        Histogram.of_weights
          [ ("INV_X1", 20.0); ("NAND2_X1", 18.0); ("NOR2_X1", 8.0); ("DFF_X1", 9.0) ];
      n = 2500;
      width = 200.0;
      height = 200.0;
    }

let report =
  lazy (Sensitivity.analyze ~chars:(Lazy.force small_chars) ~corr ~p:0.5 (Lazy.force spec))

let test_report_shape () =
  let r = Lazy.force report in
  check_close "one entry per support cell" 4.0
    (float_of_int (Array.length r.Sensitivity.cells));
  check_true "positive base stats" (r.Sensitivity.mean > 0.0 && r.Sensitivity.std > 0.0);
  let shares =
    Array.fold_left
      (fun acc c -> acc +. c.Sensitivity.mean_share)
      0.0 r.Sensitivity.cells
  in
  check_rel ~tol:1e-6 "mean shares sum to 1" 1.0 shares

let test_mean_gradient_identity () =
  (* the finite-difference mean gradient must match n (mu_i - mu_bar) *)
  let r = Lazy.force report in
  let chars = Lazy.force small_chars in
  let s = Lazy.force spec in
  let rg =
    Random_gate.create ~chars ~histogram:s.Estimate.histogram ~p:0.5 ()
  in
  let nf = float_of_int s.Estimate.n in
  Array.iter
    (fun c ->
      let analytic =
        nf *. (Random_gate.mean_of_cell rg c.Sensitivity.cell_index -. rg.Random_gate.mu)
      in
      check_rel ~tol:0.02
        (Printf.sprintf "mean gradient for %s" c.Sensitivity.cell_name)
        analytic c.Sensitivity.d_mean_d_alpha)
    r.Sensitivity.cells

let test_gradient_signs () =
  (* DFF leaks far more than NAND2: shifting mix toward DFF must raise
     the mean, toward NAND2 must lower it *)
  let r = Lazy.force report in
  let find name =
    match
      Array.find_opt (fun c -> c.Sensitivity.cell_name = name) r.Sensitivity.cells
    with
    | Some c -> c
    | None -> Alcotest.failf "cell %s missing from report" name
  in
  check_true "toward DFF raises mean" ((find "DFF_X1").Sensitivity.d_mean_d_alpha > 0.0);
  check_true "toward NAND2 lowers mean"
    ((find "NAND2_X1").Sensitivity.d_mean_d_alpha < 0.0)

let test_die_upsize_reduces_sigma () =
  let r = Lazy.force report in
  check_in_range "upsizing decorrelates" ~lo:0.5 ~hi:1.0
    r.Sensitivity.die_upsize_std_ratio

let test_growth_sensitivities () =
  let r = Lazy.force report in
  check_true "adding gates adds mean" (r.Sensitivity.d_mean_d_n > 0.0);
  check_true "adding gates adds spread" (r.Sensitivity.d_std_d_n > 0.0)

let test_epsilon_validation () =
  check_true "bad epsilon rejected"
    (try
       ignore
         (Sensitivity.analyze ~epsilon:0.9 ~chars:(Lazy.force small_chars)
            ~corr ~p:0.5 (Lazy.force spec));
       false
     with Invalid_argument _ -> true)

let suite =
  ( "persistence",
    [
      case "char_io string roundtrip" test_string_roundtrip;
      case "char_io v2 roundtrip without MC" test_roundtrip_without_mc;
      case "char_io reads v1" test_reads_v1;
      case "char_io tables numeric" test_tables_roundtrip_numerically;
      case "char_io param" test_param_roundtrip;
      case "char_io file roundtrip" test_file_roundtrip;
      case "char_io format errors" test_format_errors;
      case "loaded characterization estimates identically"
        test_loaded_chars_estimate_identically;
      slow_case "sensitivity report shape" test_report_shape;
      slow_case "mean gradient identity" test_mean_gradient_identity;
      slow_case "gradient signs" test_gradient_signs;
      slow_case "die upsizing" test_die_upsize_reduces_sigma;
      slow_case "growth sensitivities" test_growth_sensitivities;
      case "epsilon validation" test_epsilon_validation;
    ] )
