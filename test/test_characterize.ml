open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Testutil

let param = Process_param.default_channel_length

(* One shared characterization of a few representative cells, built at a
   reduced grid for test speed. *)
let char_of name =
  let rng = Rng.create ~seed:55 () in
  Characterize.characterize ~l_points:65 ~mc_samples:30_000 ~param ~rng
    (Library.find name)

let inv_char = lazy (char_of "INV_X1")
let nand_char = lazy (char_of "NAND2_X1")
let nor3_char = lazy (char_of "NOR3_X1")

let test_state_count () =
  let ch = Lazy.force nand_char in
  check_close "NAND2 has 4 characterized states" 4.0
    (float_of_int (Array.length ch.Characterize.states))

let test_table_matches_simulator () =
  let ch = Lazy.force inv_char in
  let env = Rgleak_device.Mosfet.default_env in
  let cell = ch.Characterize.cell in
  List.iter
    (fun l ->
      let direct = Cell.leakage ~l_nm:l ~env cell [| false |] in
      let table = Characterize.leakage_at ch.Characterize.states.(0) l in
      check_rel ~tol:5e-3
        (Printf.sprintf "table vs simulator at L=%g" l)
        direct table)
    [ 80.0; 85.0; 90.0; 95.0; 100.0 ]

let test_fit_quality () =
  Array.iter
    (fun (sc : Characterize.state_char) ->
      check_true "fit rms (log space) below 5%" (sc.Characterize.fit_rms_log < 0.05))
    (Lazy.force nand_char).Characterize.states

let test_fit_signs () =
  (* leakage decreases with L: b + 2cL < 0 over the fit range *)
  Array.iter
    (fun (sc : Characterize.state_char) ->
      let tr = sc.Characterize.fit in
      let slope l = tr.Mgf.b +. (2.0 *. tr.Mgf.c *. l) in
      check_true "log-leakage slope negative at nominal" (slope 90.0 < 0.0))
    (Lazy.force nor3_char).Characterize.states

let test_analytic_close_to_reference () =
  (* the paper's 2.1.2 result: mean within ~2%, std within ~10% *)
  List.iter
    (fun ch ->
      Array.iter
        (fun (sc : Characterize.state_char) ->
          let merr =
            Float.abs ((sc.Characterize.mu_analytic -. sc.Characterize.mu_ref)
                       /. sc.Characterize.mu_ref)
          in
          let serr =
            Float.abs
              ((sc.Characterize.sigma_analytic -. sc.Characterize.sigma_ref)
              /. sc.Characterize.sigma_ref)
          in
          check_true "mean error under 2%" (merr < 0.02);
          check_true "std error under 10%" (serr < 0.10))
        ch.Characterize.states)
    [ Lazy.force inv_char; Lazy.force nand_char; Lazy.force nor3_char ]

let mc_of (sc : Characterize.state_char) =
  match sc.Characterize.mc with
  | Some m -> m
  | None -> Alcotest.fail "MC cross-check requested but absent"

let test_mc_close_to_reference () =
  (* MC is an estimator of the quadrature reference *)
  Array.iter
    (fun (sc : Characterize.state_char) ->
      let mc = mc_of sc in
      check_rel ~tol:0.02 "MC mean vs quadrature" sc.Characterize.mu_ref
        mc.Characterize.mu_mc;
      check_rel ~tol:0.05 "MC std vs quadrature" sc.Characterize.sigma_ref
        mc.Characterize.sigma_mc)
    (Lazy.force inv_char).Characterize.states

let test_determinism () =
  let a = char_of "NOR2_X1" and b = char_of "NOR2_X1" in
  Array.iteri
    (fun i (sa : Characterize.state_char) ->
      let sb = b.Characterize.states.(i) in
      check_close "same seed, same MC mean" (mc_of sa).Characterize.mu_mc
        (mc_of sb).Characterize.mu_mc)
    a.Characterize.states

let test_positive_moments () =
  Array.iter
    (fun (sc : Characterize.state_char) ->
      check_true "positive analytic mean" (sc.Characterize.mu_analytic > 0.0);
      check_true "positive analytic std" (sc.Characterize.sigma_analytic > 0.0);
      check_true "positive mc mean" ((mc_of sc).Characterize.mu_mc > 0.0))
    (Lazy.force nand_char).Characterize.states

(* The cross-check is off by default: no moments, not placeholders. *)
let test_mc_off_by_default () =
  let ch =
    Characterize.characterize ~l_points:33 ~param ~rng:(Rng.create ~seed:55 ())
      (Library.find "NAND2_X1")
  in
  Array.iter
    (fun (sc : Characterize.state_char) ->
      check_true "no MC moments by default" (sc.Characterize.mc = None))
    ch.Characterize.states

(* Turning the cross-check on changes only [mc]: the table, the fit and
   the analytic and reference moments keep their bits. *)
let test_mc_leaves_the_rest_bitwise () =
  let run mc_samples =
    Characterize.characterize ~l_points:33 ~mc_samples ~param
      ~rng:(Rng.create ~seed:55 ()) (Library.find "AOI21_X1")
  in
  let off = run 0 and on = run 500 in
  let bits = Int64.bits_of_float in
  Array.iteri
    (fun i (a : Characterize.state_char) ->
      let b = on.Characterize.states.(i) in
      let same name x y =
        Alcotest.(check int64) (Printf.sprintf "state %d %s" i name) (bits x)
          (bits y)
      in
      check_true "off has no MC" (a.Characterize.mc = None);
      check_true "on has MC" (b.Characterize.mc <> None);
      List.iter2
        (fun (px, x) (py, y) ->
          same "table L" px py;
          same "table leakage" x y)
        (Array.to_list (Interp.to_points a.Characterize.table))
        (Array.to_list (Interp.to_points b.Characterize.table));
      same "fit a" a.Characterize.fit.Mgf.a b.Characterize.fit.Mgf.a;
      same "fit b" a.Characterize.fit.Mgf.b b.Characterize.fit.Mgf.b;
      same "fit c" a.Characterize.fit.Mgf.c b.Characterize.fit.Mgf.c;
      same "fit rms" a.Characterize.fit_rms_log b.Characterize.fit_rms_log;
      same "mu analytic" a.Characterize.mu_analytic b.Characterize.mu_analytic;
      same "sigma analytic" a.Characterize.sigma_analytic
        b.Characterize.sigma_analytic;
      same "mu ref" a.Characterize.mu_ref b.Characterize.mu_ref;
      same "sigma ref" a.Characterize.sigma_ref b.Characterize.sigma_ref)
    off.Characterize.states

let test_default_library_cached () =
  let t0 = Unix.gettimeofday () in
  let a = Characterize.default_library () in
  let _ = Unix.gettimeofday () in
  let b = Characterize.default_library () in
  let t2 = Unix.gettimeofday () in
  check_true "memoized result is the same array" (a == b);
  check_true "second call instantaneous" (t2 -. t0 < 60.0);
  check_close "full library characterized" 62.0 (float_of_int (Array.length a))

let test_grid_validation () =
  let rng = Rng.create ~seed:1 () in
  Alcotest.check_raises "too few grid points"
    (Invalid_argument "Characterize: need at least 8 grid points") (fun () ->
      ignore
        (Characterize.characterize ~l_points:4 ~param ~rng (Library.find "INV_X1")));
  Alcotest.check_raises "negative MC sample count"
    (Invalid_argument "Characterize: negative MC sample count") (fun () ->
      ignore
        (Characterize.characterize ~mc_samples:(-1) ~param ~rng
           (Library.find "INV_X1")))

let suite =
  ( "characterize",
    [
      case "state count" test_state_count;
      case "table matches simulator" test_table_matches_simulator;
      case "fit quality" test_fit_quality;
      case "fit slope sign" test_fit_signs;
      case "analytic vs reference accuracy (paper 2.1.2)"
        test_analytic_close_to_reference;
      case "mc vs reference" test_mc_close_to_reference;
      case "determinism" test_determinism;
      case "positive moments" test_positive_moments;
      case "mc off by default" test_mc_off_by_default;
      case "mc cross-check leaves the rest bitwise" test_mc_leaves_the_rest_bitwise;
      slow_case "default library memoization" test_default_library_cached;
      case "grid validation" test_grid_validation;
    ] )
