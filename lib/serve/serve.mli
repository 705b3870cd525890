(** The [rgleak serve] daemon: a persistent estimation service on a
    Unix-domain socket.

    One single-threaded event loop owns the socket, the admission
    queue and the shared warm {!Rgleak_num.Parallel} pool; estimator
    work runs between I/O rounds, one admitted request at a time, so
    responses per connection always come back in request order and the
    pool is never entered re-entrantly.  Every admitted request runs on
    the one {!Rgleak_cache.Batch} engine created when the daemon
    starts, over the one shared {!Rgleak_cache.Cache} handle: a warm
    request reuses the characterization and correlation tables the
    engine holds in memory (bounded by the engine's LRU caps) instead
    of decoding them from disk again.  Engine entries are addressed by
    scenario content, exactly like the disk cache, so [ok] records
    stay byte-identical to [rgleak batch]'s output for the same
    manifest lines at any job count, whatever the engine holds.

    {b Admission and fairness.}  [estimate] requests are parsed
    immediately (malformed manifests answer [error 2] without
    queueing) and admitted only while the queue is shorter than
    [max_queue]; past the cap the request is rejected with code [5]
    ([server overloaded]) and counted.  The queue is drained
    round-robin across connections ({!Sched}), so a client streaming
    many requests cannot starve a newcomer.

    {b Load shedding.}  With [shed_threshold] set, a request dequeued
    while the queue still holds at least that many others runs its
    [exact]/[mc]-tier scenarios on the O(1) 2-D integral tier instead;
    the affected records carry ["degraded": true] and
    ["requested_tier"] so callers can tell, and each rewrite counts
    toward [sheds].  [shed_threshold 0] degrades every eligible
    scenario — the deterministic setting the tests use.

    {b Shutdown.}  SIGTERM (or a [shutdown] request) stops accepting
    connections, drains every admitted request, flushes the responses,
    unlinks the socket and returns normally — so the CLI wrapper's
    ledger line is the final act of a clean exit 0.

    The loop enables {!Rgleak_obs.Obs} telemetry: every request is a
    [serve.request] span with its latency in the [serve.request_s]
    histogram, and the [stats] op answers a compact
    [rgleak-serve-stats/1] JSON object (uptime, request count, QPS,
    p50/p99 latency, queue depth, sheds, rejections, cache hit rate
    and eviction counters, and an ["engine"] member with the engine's
    table sizes and its in-memory hit, miss and eviction counts, so
    reuse across requests stays visible). *)

(** Fair round-robin admission queue: each client keeps FIFO order,
    service cycles across clients with pending work.  Pure bookkeeping
    (no I/O), exposed for direct testing. *)
module Sched : sig
  type 'a t

  val create : unit -> 'a t
  val depth : 'a t -> int

  val admit : 'a t -> client:int -> 'a -> unit
  (** Appends to [client]'s queue (joining the service ring on first
      pending item). *)

  val next : 'a t -> (int * 'a) option
  (** The next (client, item) in round-robin order, or [None] when
      empty. *)

  val forget : 'a t -> client:int -> unit
  (** Drops every pending item of [client] (a vanished connection). *)
end

type config = {
  socket_path : string;
  max_queue : int;  (** admission cap; 0 rejects every estimate *)
  shed_threshold : int option;  (** [None] never sheds *)
  cache : Rgleak_cache.Cache.t option;
}

val run : ?on_listen:(unit -> unit) -> config -> unit
(** Binds, calls [on_listen] (the readiness banner hook), serves until
    SIGTERM or a [shutdown] request, drains, and returns.  Raises
    {!Rgleak_num.Guard.Error} ([Invalid_input]) when the socket path
    cannot be bound. *)
