(** Process/temperature corner analysis.

    Sign-off evaluates leakage at named corners: the statistical model
    handles the {e within-corner} variation (this paper's contribution),
    while corners shift the {e center} — the global channel-length bias
    a fab excursion or a skewed lot produces, and the junction
    temperature.  Each corner re-characterizes the library at the
    shifted nominal and re-runs the estimator, so a corner report is a
    table of (mean, σ, mean+3σ) per corner.

    Conventions: [l_shift_sigmas] moves the nominal channel length in
    units of the D2D σ (negative = shorter = leakier, the "fast"
    corner); the within-die statistics keep their magnitudes. *)

type corner = {
  name : string;
  l_shift_sigmas : float;  (** nominal L shift in units of σ_d2d *)
  temp_c : float;  (** junction temperature, °C *)
}

val typical : corner  (** TT, 25 °C *)

val standard_corners : corner list
(** TT@25, FF@125 (−3σ L, hot), SS@−40 (+3σ L, cold), TT@125 — the usual
    leakage sign-off set, worst case first. *)

type corner_result = {
  corner : corner;
  mean : float;
  std : float;
  p3sigma : float;  (** mean + 3σ *)
}

val analyze :
  ?corners:corner list ->
  ?l_points:int ->
  ?p:float ->
  param:Rgleak_process.Process_param.t ->
  corr:Rgleak_process.Corr_model.t ->
  spec:Estimate.spec ->
  unit ->
  corner_result list
(** Characterizes the library at each corner (reduced grid: [l_points]
    defaults to 49) and estimates the design.  Results keep the input
    corner order. *)

val worst : corner_result list -> corner_result
(** The corner with the largest mean + 3σ. *)

val pp : Format.formatter -> corner_result list -> unit
