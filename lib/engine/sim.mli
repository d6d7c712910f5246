(** Discrete-event simulation core.

    A simulator owns a queue of timestamped events (thunks).  [run]
    executes events in nondecreasing time order; ties are broken by
    scheduling order, so a run is fully deterministic.  All simulated
    components (network links, protocol engines, processor fibers)
    interact exclusively by scheduling events.

    One engine serves every run with an effective job count of 1: a
    flat binary heap ordered by [(fire, insertion seq)], drained on the
    calling domain.  It is the oracle.  With {!make_sharded} and
    {!set_jobs} [>= 2], {!run} hands the pending events to the windowed
    {!Shard} engine, which drains per-shard heaps on OCaml domains
    between lookahead barriers and reproduces the same per-shard order.
    Events scheduled from host code (outside any event) order by their
    insertion whatever shard they target, so seeding order is free. *)

type time = int
(** Simulated time in processor cycles. *)

type t
(** A simulator instance. *)

val create : unit -> t
(** [create ()] is a fresh simulator at time 0 with no events. *)

val make_sharded : t -> nshards:int -> lookahead:int -> unit
(** Install the windowed engine with [nshards] partitions (also
    declaring the topology) and a conservative [lookahead] window (the
    inter-SSMP LAN latency).  Idempotent for identical parameters.
    @raise Invalid_argument if a different engine is already installed
    or if [lookahead < 1]. *)

val set_topology : t -> nshards:int -> unit
(** Declare the shard (SSMP) count so events and statistics are
    attributed to the same per-shard cells the windowed engine would
    use — the observability layer's per-shard stores rely on this
    routing being identical for every job count.  Resizing discards
    per-shard counts. *)

val enable_stamps : t -> unit
(** Publish a (time, insertion-seq) pseudo genealogy key per
    single-domain event (readable via {!Shard.running_key}) so
    observability emissions can be order-stamped.  Off by default, so
    unobserved runs skip the per-event stores.  Windowed runs always
    publish real keys. *)

val set_on_event : t -> (shard:int -> now:int -> unit) option -> unit
(** Install a callback run immediately before each event on the
    executing domain (after clock/counters advance).  Used by the
    metrics sampler.  The callback must only touch state owned by
    [shard]; anything else breaks byte-identity across job counts. *)

val set_jobs : t -> int -> unit
(** Effective domain count for subsequent {!run}s (clamped to
    [1 .. nshards]).  [1] drains the single-domain heap; [>= 2] runs
    the windowed engine's shards concurrently between lookahead
    barriers.
    @raise Invalid_argument when [> 1] without {!make_sharded}. *)

val set_strict : t -> bool -> unit
(** Strict mode (windowed runs only): a cross-shard event merged after
    its destination's clock — a lookahead violation — raises
    {!Shard.Late_delivery} instead of being clamped and counted. *)

val now : t -> time
(** [now sim] is the timestamp of the event currently executing (or the
    last executed); 0 before any event runs. *)

val at : t -> time -> (unit -> unit) -> unit
(** [at sim t f] schedules [f] to run at absolute time [max t (now sim)].
    Scheduling in the past is clamped to the present rather than
    rejected: protocol handlers routinely complete work whose latency
    was accounted on a processor clock that lags global time.  Each
    clamp is counted in {!stats}.  The event lands on the shard
    currently executing (shard 0 from host code). *)

val at_shard : t -> shard:int -> time -> (unit -> unit) -> unit
(** [at_shard sim ~shard t f] schedules [f] on an explicit shard —
    cross-SSMP message delivery and host-side seeding. *)

val after : t -> time -> (unit -> unit) -> unit
(** [after sim d f] is [at sim (now sim + d) f].  [d] must be [>= 0]. *)

val pending : t -> int
(** Number of events not yet executed. *)

val events_executed : t -> int
(** Total events executed since creation (throughput accounting). *)

val peak_pending : t -> int
(** High-water mark of the event queue length.  Windowed runs report
    the sum of per-shard peaks (an upper bound); this figure is
    host-/engine-sensitive and deliberately excluded from the
    determinism contract. *)

type stats = { s_executed : int; s_peak : int; s_clamped : int }

val stats : t -> stats
(** Execution counters: events executed, peak pending, and the number
    of past-due schedules clamped forward to the clock ([s_clamped] —
    silent before, now observable so cross-shard delivery bugs surface
    as counted clamps). *)

type shard_stat = Shard.shard_stat = {
  st_id : int;
  st_executed : int;
  st_xsends : int;
  st_clamped : int;
  st_peak : int;
  st_merges : int;
  st_stalls : int;
  st_wall : float;
}

val shard_stats : t -> shard_stat array
(** Per-shard self-profiling over every run: the single-domain
    engine's attribution counters plus the windowed engine's
    (merges/stalls/wall/peak come from windowed runs only).
    [st_executed]/[st_xsends] are deterministic; the rest are not part
    of the byte-identity contract. *)

val windows : t -> int
(** Lookahead windows opened (0 unless a windowed run happened). *)

val barrier_wall : t -> float
(** Host seconds the windowed coordinator spent at barriers (0 when
    never windowed). *)

val shard_executed : t -> int -> int
(** Events executed by one shard — shard-local, deterministic. *)

val shard_xsends : t -> int -> int
(** Cross-shard sends originated by one shard — shard-local,
    deterministic. *)

val run : t -> ?limit:int -> unit -> int
(** [run sim ()] executes events until none remain and returns the
    number executed by this call.  [limit] (default unlimited) bounds
    the count as a livelock guard.
    @raise Failure if [limit] is exhausted; the message carries the
    limit, events executed, the clock, and the pending count. *)
