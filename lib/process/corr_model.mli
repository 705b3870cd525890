(** Spatial correlation of the within-die parameter component, and the
    total (D2D + WID) correlation used by the estimators.

    The WID correlation is a function of the distance between two die
    locations (Xiong-Zolotov-He style extraction gives such functions);
    several standard families are provided.  All distances are in
    micrometres. *)

type wid_family =
  | Exponential of { range : float }
      (** ρ(d) = exp(−d / range); never reaches exactly zero.
          Positive definite in any dimension. *)
  | Gaussian of { range : float }
      (** ρ(d) = exp(−(d / range)²).  Positive definite in any
          dimension. *)
  | Linear of { dmax : float }
      (** ρ(d) = max(0, 1 − d/dmax); reaches zero at [dmax].
          {b Caution}: the triangle function is a valid covariance only
          in one dimension — on dense 2-D site grids its correlation
          matrix is indefinite, so it cannot be Monte-Carlo sampled
          ({!Rgleak_num.Cholesky.decompose_semidefinite} will refuse).
          The analytical estimators accept it. *)
  | Spherical of { dmax : float }
      (** Variogram-derived: ρ(d) = 1 − 1.5 (d/dmax) + 0.5 (d/dmax)³ for
          d < dmax, else 0; reaches zero with zero slope.  Positive
          definite up to three dimensions — the recommended compactly
          supported family (admits the polar O(1) method {e and} MC
          sampling). *)
  | Truncated_exponential of { range : float; dmax : float }
      (** Exponential shifted and scaled to hit exactly zero at [dmax],
          so the polar constant-time method applies.  Not guaranteed
          positive definite in 2-D (mild truncation is harmless in
          practice, aggressive truncation is not). *)

val of_spec : string -> wid_family
(** Parses a correlation spec: [linear:DMAX], [spherical:DMAX],
    [exp:RANGE], [gauss:RANGE] or [texp:RANGE:DMAX] (micrometres).
    Every number must be finite and positive.  Raises
    {!Rgleak_num.Guard.Error} ([Invalid_input]) otherwise. *)

val to_spec : num:(float -> string) -> wid_family -> string
(** The spec string {!of_spec} reads, each number rendered by [num]:
    [Printf.sprintf "%h"] gives the exact spelling cache keys use,
    [Printf.sprintf "%g"] the short one reports and labels use. *)

type t
(** A complete correlation model: WID family plus the D2D floor derived
    from a parameter's variance split. *)

val create : wid_family -> Process_param.t -> t
(** Builds the total-correlation model for a parameter: the correlation
    between the parameter at two locations distance [d] apart is
    [ρ(d) = (σ²_d2d + σ²_wid · ρ_wid(d)) / (σ²_d2d + σ²_wid)]. *)

val wid : t -> float -> float
(** WID-only correlation at a distance. *)

val total : t -> float -> float
(** Total correlation at a distance (what the estimators consume). *)

val floor : t -> float
(** The constant D2D part ρ_C = σ²_d2d / σ²_total (Eq. 26). *)

val wid_dmax : t -> float option
(** Distance at which the WID correlation is exactly zero, when the
    family has one ([Linear], [Spherical], [Truncated_exponential]). *)

val psd_in_2d : t -> bool
(** Whether the WID family is guaranteed positive semi-definite on 2-D
    point sets (and hence safe for Monte-Carlo field sampling):
    true for [Exponential], [Gaussian] and [Spherical]. *)

val family : t -> wid_family
val param : t -> Process_param.t

val is_valid_correlation : t -> samples:int -> upto:float -> bool
(** Sanity predicate used by property tests: checks ρ(0)=1, values in
    [\[floor-eps, 1\]], and monotone non-increase over [samples] points
    up to distance [upto]. *)

val pp : Format.formatter -> t -> unit
