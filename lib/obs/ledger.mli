(** Persistent run ledger: appends one compact ["rgleak-run/2"] JSON
    line per CLI run to a shared JSONL file (default
    [.rgleak/ledger.jsonl]).

    Each record carries the subcommand, an MD5 digest of the canonical
    argument vector, schema versions, the run's exit class ("ok", a
    {!Rgleak_num.Guard} diagnostic class, or "error"), elapsed wall
    time, merged counters and gauges, histogram summaries
    (count/sum/min/max, p50/p90/p99) {e plus} the sparse bucket
    counts — so a reader can re-aggregate quantiles exactly across
    runs — and GC totals.

    Appends are crash- and concurrency-safe: the file is opened with
    [O_APPEND] and the whole line is written in a single [write], so
    records from concurrent processes never interleave. *)

val schema : string
(** ["rgleak-run/2"]. *)

val default_path : string
(** [".rgleak/ledger.jsonl"]. *)

val args_digest : string list -> string
(** MD5 hex digest of the NUL-joined argument vector. *)

val line :
  subcommand:string ->
  args:string list ->
  exit_class:string ->
  ?t:float ->
  Obs.snapshot ->
  string
(** Renders one ledger record (no trailing newline).  [t] is a wall
    timestamp in epoch seconds (0 when not supplied, e.g. in
    deterministic fixtures). *)

val append : path:string -> string -> (unit, string) result
(** Appends [line ^ "\n"] to [path], creating parent directories as
    needed.  Errors are returned, not raised — a failed ledger write
    must never fail the run that produced it. *)
