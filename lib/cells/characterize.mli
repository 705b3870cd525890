(** Cell leakage pre-characterization.

    For every cell and input state this produces (§2.1):
    - a tabulation of the deterministic leakage-vs-L curve (the
      "simulator" output; within a cell, L is fully correlated so each
      state's leakage is a function of a single scalar),
    - the analytical [(a, b, c)] fit of that curve and the resulting
      closed-form statistics (the paper's analytical technique),
    - reference statistics by Gauss–Legendre integration of the true
      curve against the length density, and
    - optionally, Monte-Carlo statistics (the paper's MC technique).

    No estimator reads the MC statistics: as in the paper, MC only
    checks the analytical fit.  The cross-check is therefore opt-in
    ([mc_samples], default 0); the [characterize] report and the §2.1.2
    accuracy experiment turn it on with {!cross_check_samples}.  Its
    analytical-vs-MC discrepancies reproduce the paper's accuracy table
    (mean error < 2 %, σ error up to ≈ 10 %) and stem from the curve not
    being exactly log-quadratic, not from the moment derivation. *)

type mc_moments = { mu_mc : float; sigma_mc : float }
(** Sample mean and standard deviation of the tabulated curve over
    [mc_samples] channel-length draws. *)

type state_char = {
  state_index : int;
  table : Rgleak_num.Interp.t;  (** leakage (nA) vs channel length (nm) *)
  fit : Mgf.triplet;
  fit_rms_log : float;  (** RMS residual of the fit in ln-space *)
  mu_analytic : float;
  sigma_analytic : float;
  mu_ref : float;
  sigma_ref : float;
  mc : mc_moments option;  (** [None] unless the MC cross-check ran *)
}

type cell_char = {
  cell : Cell.t;
  param : Rgleak_process.Process_param.t;
  states : state_char array;  (** indexed by state index *)
}

val characterize :
  ?l_points:int ->
  ?span_sigmas:float ->
  ?mc_samples:int ->
  ?env:Rgleak_device.Mosfet.env ->
  param:Rgleak_process.Process_param.t ->
  rng:Rgleak_num.Rng.t ->
  Cell.t ->
  cell_char
(** Characterizes one cell.  The L grid covers
    [nominal ± span_sigmas·σ_total] (default ±6σ) with [l_points]
    points (default 97).  [mc_samples] (default 0: no cross-check) sets
    the size of the MC cross-check; it draws from [rng] state by state,
    and it is the only consumer of [rng], so everything but [mc] is
    independent of both.  Raises [Invalid_argument] when [l_points < 8]
    or [mc_samples < 0].  [env] selects supply and temperature
    (default: 1 V, 300 K). *)

val cross_check_samples : int
(** The MC cross-check size of the [characterize] report and the
    §2.1.2 accuracy experiment: 20,000 draws per state. *)

val characterize_library :
  ?l_points:int ->
  ?span_sigmas:float ->
  ?mc_samples:int ->
  ?env:Rgleak_device.Mosfet.env ->
  ?jobs:int ->
  param:Rgleak_process.Process_param.t ->
  seed:int ->
  unit ->
  cell_char array
(** Characterizes all of {!Library.cells}.  Deterministic given [seed],
    {e including} in parallel: per-cell RNG streams are pre-derived in
    canonical order, then the cells fan out over the
    {!Rgleak_num.Parallel} domain pool ([jobs] as in
    {!Rgleak_num.Parallel.using}; default
    {!Rgleak_num.Parallel.default_jobs}, [jobs <= 1] stays inline). *)

val characterize_library_result :
  ?l_points:int ->
  ?span_sigmas:float ->
  ?mc_samples:int ->
  ?env:Rgleak_device.Mosfet.env ->
  ?jobs:int ->
  param:Rgleak_process.Process_param.t ->
  seed:int ->
  unit ->
  (cell_char array, Rgleak_num.Guard.diagnostic) Stdlib.result
(** Non-raising {!characterize_library} under
    {!Rgleak_num.Guard.protect}: malformed settings fold to
    [Invalid_input], non-finite fitted moments and injected pool
    faults to [Numeric]. *)

val default_library : unit -> cell_char array
(** Library characterization under {!Rgleak_process.Process_param.default_channel_length}
    with a fixed seed and the MC cross-check off; computed once on the
    shared domain pool and memoized. *)

val leakage_at : state_char -> float -> float
(** Table lookup: leakage at a channel length. *)
