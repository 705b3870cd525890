open Rgleak_num
open Rgleak_process
module Obs = Rgleak_obs.Obs

type mc_moments = { mu_mc : float; sigma_mc : float }

type state_char = {
  state_index : int;
  table : Interp.t;
  fit : Mgf.triplet;
  fit_rms_log : float;
  mu_analytic : float;
  sigma_analytic : float;
  mu_ref : float;
  sigma_ref : float;
  mc : mc_moments option;
}

type cell_char = {
  cell : Cell.t;
  param : Process_param.t;
  states : state_char array;
}

let leakage_at sc l = Interp.eval sc.table l

(* Reference moments: integrate the tabulated curve (and its square)
   against the normal length density over the tabulated span. *)
let reference_moments table ~mu ~sigma ~span =
  let lo = mu -. (span *. sigma) and hi = mu +. (span *. sigma) in
  let pdf l =
    let z = (l -. mu) /. sigma in
    exp (-0.5 *. z *. z) /. (sigma *. sqrt (2.0 *. Float.pi))
  in
  let m1 =
    Quadrature.gauss_legendre ~order:96 (fun l -> Interp.eval table l *. pdf l) ~lo ~hi
  in
  let m2 =
    Quadrature.gauss_legendre ~order:96
      (fun l ->
        let x = Interp.eval table l in
        x *. x *. pdf l)
      ~lo ~hi
  in
  (m1, sqrt (Float.max 0.0 (m2 -. (m1 *. m1))))

let characterize_state ~env ~param ~span ~l_points ~mc_samples ~rng cell
    state_index =
  let mu = param.Process_param.nominal in
  let sigma = Process_param.sigma_total param in
  let state = Cell.state_of_index cell state_index in
  let lo = mu -. (span *. sigma) and hi = mu +. (span *. sigma) in
  let ls = Vector.linspace lo hi l_points in
  let currents = Array.map (fun l -> Cell.leakage ~l_nm:l ~env cell state) ls in
  let table = Interp.of_points (Array.map2 (fun l x -> (l, x)) ls currents) in
  (* The (a,b,c) fit uses the ±3.5σ core of the grid: this mimics the
     paper's "limited sampling" and keeps the fit representative of the
     probable region rather than the extreme tails. *)
  let fit_span = Float.min span 3.5 in
  let fit_mask l = Float.abs (l -. mu) <= fit_span *. sigma +. 1e-9 in
  let fit_ls =
    Array.of_seq (Seq.filter fit_mask (Array.to_seq ls))
  in
  let fit_currents = Array.map (fun l -> Interp.eval table l) fit_ls in
  let a, b, c = Polyfit.fit_log_quadratic ~ls:fit_ls ~currents:fit_currents in
  let fit = Mgf.triplet ~a ~b ~c in
  let fit_rms_log =
    let coeffs = [| log a; b; c |] in
    Polyfit.rms_residual ~coeffs ~xs:fit_ls ~ys:(Array.map log fit_currents)
  in
  (* Boundary guardrail: a fit whose moments blow up (degenerate grid,
     divergent MGF) must surface as a typed diagnostic, not as NaN
     moments silently poisoning every downstream estimate. *)
  let check name v =
    Guard.check_finite ~site:"characterize"
      ~name:(Printf.sprintf "%s of %s state %d" name cell.Cell.name state_index)
      v
  in
  let mu_analytic = check "analytic mean" (Mgf.mean fit ~mu ~sigma) in
  let sigma_analytic = check "analytic sigma" (Mgf.std fit ~mu ~sigma) in
  let mu_ref, sigma_ref = reference_moments table ~mu ~sigma ~span in
  let mu_ref = check "reference mean" mu_ref in
  (* The optional MC cross-check draws from this cell's stream in state
     order, so its moments do not depend on the job count. *)
  let mc =
    if mc_samples = 0 then None
    else begin
      let acc = Stats.Acc.create () in
      for _ = 1 to mc_samples do
        let l = Rng.gaussian_mu_sigma rng ~mu ~sigma in
        Stats.Acc.add acc (Interp.eval table l)
      done;
      Some { mu_mc = Stats.Acc.mean acc; sigma_mc = Stats.Acc.std acc }
    end
  in
  {
    state_index;
    table;
    fit;
    fit_rms_log;
    mu_analytic;
    sigma_analytic;
    mu_ref;
    sigma_ref;
    mc;
  }

let cross_check_samples = 20_000

let characterize ?(l_points = 97) ?(span_sigmas = 6.0) ?(mc_samples = 0)
    ?(env = Rgleak_device.Mosfet.default_env) ~param ~rng cell =
  if l_points < 8 then invalid_arg "Characterize: need at least 8 grid points";
  if mc_samples < 0 then invalid_arg "Characterize: negative MC sample count";
  Obs.count "characterize.states" (Cell.num_states cell);
  let states =
    Array.init (Cell.num_states cell) (fun i ->
        characterize_state ~env ~param ~span:span_sigmas ~l_points ~mc_samples
          ~rng cell i)
  in
  { cell; param; states }

let characterize_library ?l_points ?span_sigmas ?mc_samples ?env ?jobs ~param
    ~seed () =
  Obs.span "characterize.library" @@ fun () ->
  Obs.count "characterize.cells" Library.size;
  let rng = Rng.create ~seed () in
  (* Child streams are derived in canonical cell order so sequential and
     parallel runs produce bit-identical results; the single-job case
     takes the same pool path so task counters are jobs-invariant. *)
  let child_rngs = Array.map (fun _ -> Rng.split rng) Library.cells in
  let one i =
    characterize ?l_points ?span_sigmas ?mc_samples ?env ~param
      ~rng:child_rngs.(i) Library.cells.(i)
  in
  (* Pre-warm the shared quadrature memo table: the worker domains
     then only read it (Hashtbl is not safe for concurrent writes). *)
  ignore (Quadrature.gauss_legendre_nodes 96);
  Parallel.using ?jobs (fun pool ->
      Parallel.map_array ~label:"characterize.cell" pool one
        (Array.init Library.size Fun.id))

let characterize_library_result ?l_points ?span_sigmas ?mc_samples ?env ?jobs
    ~param ~seed () =
  Guard.protect
    (characterize_library ?l_points ?span_sigmas ?mc_samples ?env ?jobs ~param
       ~seed)

let default_library =
  let memo = lazy (
    characterize_library ~param:Process_param.default_channel_length ~seed:1729 ())
  in
  fun () -> Lazy.force memo
