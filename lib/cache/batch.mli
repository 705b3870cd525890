(** The batch engine behind [rgleak batch]: many scenarios, one warm
    pool, one cache.

    A manifest is JSONL — one scenario object per line (blank lines and
    [#] comment lines are skipped):

    {v
    {"id": "sweep-a", "n": 1200, "mix": "INV_X1:3,NAND2_X1:2",
     "corr": "spherical:120", "tier": "linear", "seed": 7}
    v}

    Fields: [n] (gates, required), [mix] (CELL:WEIGHT list, the
    {!Rgleak_circuit.Histogram.parse_mix} grammar, required), [corr]
    (the {!Rgleak_process.Corr_model.of_spec} grammar, required);
    optional [id]
    (defaults to a content-derived hash), [p] (signal probability;
    default: the conservative maximizing setting), [tier] ("auto",
    "linear", "int2d", "polar", "exact", "mc", "tail"; default "auto"),
    [seed] (default 0), [aspect] (default 1), [width]/[height] (µm,
    both or neither; override [aspect]), [vt] (default false),
    [replicas] (MC dies, default 400, [mc] and [tail] only), [temp]
    (junction temperature in °C; default: the library's 300 K),
    [budget] (µA, required for the [tail] tier: the exceedance
    threshold) and [shift] (nm, [tail] only: manual proposal shift
    overriding the automatic budget calibration).

    Malformed JSON, unknown fields, unknown cells and out-of-range
    values are {e manifest} errors: parsing raises
    {!Rgleak_num.Guard.Error} ([Invalid_input]) naming the line, and
    the whole run exits 2.  So does an empty manifest.  Failures
    {e inside} a scenario (e.g. a numeric breakdown, an injected
    fault) are folded into that scenario's report record; the other
    scenarios still run.

    {b Determinism.}  A scenario's record is a pure function of the
    scenario's content — per-scenario seeds derive from its [seed]
    field, never from its line number, and every estimator tier
    reduces in a fixed order on the shared pool.  Reports are
    therefore bit-identical across [--jobs] values, across cold and
    warm caches, and scenario records are invariant under manifest
    reordering (only the record order follows the manifest). *)

type tier = Auto | Linear | Integral_2d | Integral_polar | Exact | Mc | Tail

type scenario = {
  s_id : string;  (** explicit id, or derived from the content key *)
  s_line : int;  (** 1-based manifest line (diagnostics only) *)
  s_n : int;
  s_mix : (string * float) list;
  s_family : Rgleak_process.Corr_model.wid_family;
  s_p : float option;  (** [None] = maximizing setting *)
  s_tier : tier;
  s_seed : int;
  s_aspect : float;
  s_dims : (float * float) option;  (** explicit width × height (µm) *)
  s_vt : bool;
  s_replicas : int;
  s_temp : float option;  (** °C; [None] = default 300 K library *)
  s_budget : float option;  (** µA; required for the [tail] tier *)
  s_shift : float option;  (** nm; [None] = calibrate at the budget *)
}

val tier_name : tier -> string

val scenario_key_parts : scenario -> string list
(** The canonical content key parts of a scenario (library fingerprint,
    process parameter, mix, correlation, tier, seed, geometry, ...) —
    what the default id and the cache addressing derive from.  Line
    numbers and explicit ids do not participate. *)

val parse_manifest : string -> scenario list
(** Parses JSONL manifest text.  Raises {!Rgleak_num.Guard.Error}
    ([Invalid_input]) on malformed lines, unknown fields or values, and
    on an empty manifest. *)

type outcome = {
  o_id : string;
  o_json : Rgleak_obs.Vjson.t;  (** the report record *)
  o_code : int;  (** 0, or the {!Rgleak_num.Guard.exit_code} class *)
}

type engine
(** Shared state for any number of scenarios: the warm pool handle,
    the in-memory characterization/correlation tables, and the
    (optional) on-disk cache.  [rgleak batch] uses one engine per run;
    the serve daemon keeps one engine for its whole lifetime, so a
    warm request reuses the decoded characterization and correlation
    tables instead of reading them from disk again.

    {b Bounded memory.}  Both tables are LRUs with fixed caps:
    at most {!max_chars} characterizations (keyed by temperature) and
    {!max_contexts} correlation contexts (keyed by mix, signal
    probability and temperature).  A context holds its
    characterization, so evicting a characterization also evicts the
    contexts built on it.  Entries are addressed by the same key parts
    as the disk cache and are only inserted once fully built, so a hit
    returns exactly the bits a recompute would: records stay a pure
    function of the scenario across evictions and failed builds. *)

val max_chars : int
(** 4: one characterization is about 1 MB of floats. *)

val max_contexts : int
(** 64: one context is at most 11×11×65 floats of correlation tables,
    about 60 KB. *)

val engine : ?cache:Cache.t -> unit -> engine
(** A fresh engine with empty tables on the warm shared pool (touching
    the pool so the first scenario reuses warm domains). *)

type engine_stats = {
  es_chars : int;  (** characterizations held now *)
  es_contexts : int;  (** correlation contexts held now *)
  es_hits : int;  (** table lookups answered in memory *)
  es_misses : int;  (** lookups that went to the disk cache or computed *)
  es_evictions : int;  (** entries dropped to stay within the caps *)
}

val engine_stats : engine -> engine_stats
(** The engine's table sizes and lifetime counters (also counted as
    [batch.engine.hits], [batch.engine.misses] and
    [batch.engine.evictions] in {!Rgleak_obs.Obs}).  A lookup in either
    table counts once, so a context miss whose characterization is
    held counts one miss and one hit. *)

val run_one : engine -> scenario -> outcome
(** Executes one scenario.  Never raises for per-scenario failures —
    those become error records carrying the diagnostic class.  A
    scenario's record is a pure function of the scenario content:
    bit-identical across engines, job counts and cache states. *)

val run : ?cache:Cache.t -> scenario list -> outcome list
(** Executes the scenarios in manifest order on the warm shared pool,
    sharing characterizations and correlation structures in memory
    (within the caps above) within the run and through [cache] across
    runs.  Never raises for
    per-scenario failures — those become error records.  Equivalent to
    folding {!run_one} over one fresh {!engine}. *)

val report : outcome list -> string
(** The [rgleak-batch/1] JSONL report: a header line, then one record
    per scenario in manifest order. *)

val exit_code : outcome list -> int
(** 0 when every record is ok, else the highest failure class
    (invalid-input 2 < numeric 3 < internal 4). *)
