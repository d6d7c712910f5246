(** Event heap for the windowed engine: a binary min-heap over
    canonical genealogy keys.

    A key orders an event by [(fire, sched, src, seq)] with one
    refinement: when two events tie on [(fire, sched)] but were created
    by {e different} shards, the tie is broken by recursively comparing
    the keys of the events that created them.  That parent pop order is
    exactly what the single-domain engine's insertion counter encodes,
    so the canonical order reproduces the single-domain engine's
    [(time, scheduling order)] tie-breaking in every case — including
    two shards scheduling onto a common destination at the same clock.

    [own] names the shard that will execute the event — it is carried,
    not part of the order. *)

type key = private {
  k_fire : int;  (** absolute fire time *)
  k_sched : int;  (** scheduling shard's clock at creation *)
  k_src : int;  (** scheduling shard's id *)
  k_seq : int;  (** scheduling shard's private counter *)
  k_parent : key;  (** key of the creating event; {!no_parent} for roots *)
}

val no_parent : key
(** Sentinel parent of host-scheduled (root) events. *)

val key : fire:int -> sched:int -> src:int -> seq:int -> parent:key -> key

val root : fire:int -> seq:int -> key
(** Key of a host-scheduled event, [seq] being its insertion number in
    the single-domain heap.  Roots share one [src] sentinel and the
    smallest [sched], so they sort before every same-[fire] event
    created during execution and among themselves by insertion — the
    single-domain engine's order, whatever shards they target. *)

val refire : key -> fire:int -> key
(** The same key moved to a later fire time (lookahead-violation
    clamping at outbox flush). *)

val cmp_key : key -> key -> int
(** The canonical total order described above. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val min_fire : t -> int option
(** Fire time of the earliest event, if any. *)

val push : t -> key:key -> own:int -> (unit -> unit) -> unit

exception Empty_queue

val pop_min : t -> unit -> unit
(** Removes and returns the minimum element's thunk.  Its key is
    readable via {!popped_key} / {!popped_own} until the next pop.
    @raise Empty_queue when empty. *)

val popped_key : t -> key
val popped_fire : t -> int
val popped_own : t -> int
