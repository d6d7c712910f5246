(** Windowed discrete-event engine: one event partition per SSMP
    cluster, drained concurrently on OCaml domains and synchronized
    conservatively with the inter-SSMP LAN latency as the lookahead
    window.

    Use through {!Sim}: [Sim.make_sharded] installs an engine behind a
    simulator, and [Sim.run] hands it the pending events whenever the
    job count is two or more.  A one-job run never comes here; it
    drains {!Sim}'s single-domain [(fire, insertion seq)] heap, the
    order this engine reproduces per shard.  Events created during a
    windowed run carry genealogy keys ({!Shardq}); cross-shard sends
    are merged at window barriers.  Events pending when the run starts
    become roots ({!Shardq.root}), ordered by their insertion in the
    single-domain heap whatever shard they target.  The contract relies
    on every cross-shard event firing at least [lookahead] after its
    creation, which the LAN's fixed inter-SSMP latency guarantees. *)

type t

exception Late_delivery of { dst : int; fire : int; clock : int }
(** Raised (strict mode only) when a cross-shard event would fire
    before its destination shard's clock — a lookahead violation. *)

val create : nshards:int -> lookahead:int -> t
(** @raise Invalid_argument when [nshards < 1] or [lookahead < 1] (a
    zero-latency LAN admits no conservative window). *)

val nshards : t -> int
val lookahead : t -> int

val set_strict : t -> bool -> unit
(** Strict mode: raise {!Late_delivery} instead of silently clamping a
    late cross-shard merge. *)

val cur : unit -> int
(** Shard currently executing on this domain; -1 outside an event. *)

val set_cur : int -> unit
(** Publish the executing shard on this domain (engine internal;
    exposed for the single-domain engine's per-shard attribution). *)

val running_key : unit -> Shardq.key
(** Genealogy key of the event this domain is currently executing; the
    observability layer stamps emissions with it so per-shard cells
    merge back into the canonical execution order.  Meaningful only
    while {!cur} is [>= 0].  The single-domain engine publishes a
    (time, insertion-seq) pseudo-key when [Sim.enable_stamps] is on.
    [no_parent] once a windowed run has ended. *)

val set_run_key_seq : fire:int -> sched:int -> unit
(** Publish a single-domain pseudo-key [(fire, sched, 0, 0, root)]
    without allocating: the key record is materialized lazily on the
    first {!running_key} call for this event, so unobserved events cost
    two scalar stores (engine internal). *)

val running_scalar : unit -> bool
(** True while the current event's pseudo-key is unmaterialized: a
    recorder that stores stamps unboxed can read {!running_fire} /
    {!running_sched} instead of forcing the record through
    {!running_key}. *)

val running_fire : unit -> int

val running_sched : unit -> int

val set_on_event : t -> (shard:int -> now:int -> unit) option -> unit
(** Install a callback invoked on the executing domain immediately
    before each event, after the shard clock/counters advance.  The
    callback must only touch state owned by [shard], or runs stop being
    byte-identical across job counts. *)

val now : t -> int
(** Executing shard's clock inside an event; the latest shard clock
    from host code. *)

val push_root : t -> fire:int -> seq:int -> own:int -> (unit -> unit) -> unit
(** Hand over an event pending in the single-domain heap, with its
    insertion number there, before {!run}. *)

val at_shard : t -> shard:int -> int -> (unit -> unit) -> unit
(** Schedule from inside an event of a running {!run}.  Cross-shard
    calls park the event in the scheduling shard's outbox until the
    next window barrier. *)

val run : t -> jobs:int -> limit:int -> int
(** Drain every pending event on [jobs] (>= 2) domains; returns the
    number executed by this call.  Resets {!running_key} when it ends,
    on success and on exception.  @raise Failure with full diagnostics
    when [limit] is exhausted. *)

val executed : t -> int
val clamped : t -> int
val pending : t -> int

val peak : t -> int
(** Sum of the per-shard heap high-water marks (an upper bound on the
    true global peak — the shards peak at different times). *)

(** {2 Engine self-profiling} *)

type shard_stat = {
  st_id : int;
  st_executed : int;  (** events executed by this shard (deterministic) *)
  st_xsends : int;  (** cross-shard sends originated here (deterministic) *)
  st_clamped : int;  (** past-due schedules clamped on this shard *)
  st_peak : int;  (** per-shard heap high-water mark *)
  st_merges : int;  (** outbox messages merged into this shard *)
  st_stalls : int;  (** windows in which this shard executed nothing *)
  st_wall : float;  (** host seconds spent draining this shard *)
}

val shard_stats : t -> shard_stat array
(** One entry per shard.  [st_executed] and [st_xsends] are pure
    functions of the simulated program; the remaining fields depend on
    the job count and host and are excluded from the byte-identity
    contract. *)

val windows : t -> int
(** Lookahead windows opened so far. *)

val barrier_wall : t -> float
(** Host seconds the coordinator spent waiting at window barriers. *)

val shard_executed : t -> int -> int
(** [shard_executed eng i] — events executed by shard [i]; shard-local,
    safe to read from shard [i]'s own event context. *)

val shard_xsends : t -> int -> int
(** [shard_xsends eng i] — cross-shard sends originated by shard [i]. *)
