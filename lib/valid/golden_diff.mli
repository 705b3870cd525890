(** Golden-artifact regression: structural + tolerance diffs of
    [rgleak-validate/1] reports against committed baselines.

    Drift classes:
    - {!Identical} — the fresh report is bit-for-bit the baseline (the
      expected steady state, since reports are pure functions of
      [(sweep, seed)]);
    - {!Benign} — numeric fields moved, but every movement stays within
      the baseline's own MC confidence interval (indistinguishable from
      the pinned run's sampling noise; appears when numerics are
      intentionally reordered);
    - {!Breaking} — structural changes (schema, point set, tier set,
      statuses, pass flags) or numeric drift beyond the MC interval:
      the code now computes something statistically different. *)

type severity = Identical | Benign | Breaking

type finding = {
  path : string;  (** location, e.g. ["points/3/tiers/1/std"] *)
  kind : severity;
  detail : string;
}

type diff = { severity : severity; findings : finding list }

val severity_name : severity -> string
val worst : severity -> severity -> severity

val compare : baseline:Rgleak_obs.Vjson.t -> current:Rgleak_obs.Vjson.t -> diff
(** Diffs two parsed reports.  Raises {!Rgleak_obs.Vjson.Parse_error} if either
    document does not have the [rgleak-validate/1] shape. *)

val tail_schema : string
(** ["rgleak-tail/1"]. *)

val compare_tail : baseline:Rgleak_obs.Vjson.t -> current:Rgleak_obs.Vjson.t -> diff
(** Diffs two [rgleak-tail/1] documents: scenario identity and counts
    are structural (Breaking), [p_exceed] drift is judged against the
    baseline's own delta-method CI (Benign within it), all other
    numerics use the bit-stability fallback.  Raises
    {!Rgleak_obs.Vjson.Parse_error} on documents without the tail shape. *)

val optimize_schema : string
(** ["rgleak-optimize/1"]. *)

val compare_optimize : baseline:Rgleak_obs.Vjson.t -> current:Rgleak_obs.Vjson.t -> diff
(** Diffs two [rgleak-optimize/1] documents over the union of their
    top-level keys.  Optimizer reports are fully deterministic (no MC
    noise), so strings, booleans, and field presence are structural
    (Breaking) and every numeric field uses the bit-stability fallback
    epsilon.  Raises {!Rgleak_obs.Vjson.Parse_error} on documents without a
    ["schema"] string. *)

val compare_document : baseline:Rgleak_obs.Vjson.t -> current:Rgleak_obs.Vjson.t -> diff
(** Dispatches on the baseline's ["schema"] field: [rgleak-tail/1]
    documents go to {!compare_tail}, [rgleak-optimize/1] to
    {!compare_optimize}, everything else to {!compare}. *)

val pp : Format.formatter -> diff -> unit
