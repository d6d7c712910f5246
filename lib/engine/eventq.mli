(** Event heap for the single-domain engine: a binary min-heap of
    thunks ordered by [(fire, seq)].

    [fire] is the absolute time the event runs at; [seq] is the
    caller's insertion counter, so events due at the same time pop in
    the order they were scheduled.  Keys and the [own] tag (the shard
    that will execute the event; carried, not part of the order) are
    stored unboxed: pushing and popping allocate nothing beyond the
    thunk the caller already built. *)

type t

val create : unit -> t
(** An empty heap with room for 32 events before its arrays double. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> fire:int -> seq:int -> own:int -> (unit -> unit) -> unit

exception Empty_queue

val pop_min : t -> unit -> unit
(** Removes and returns the earliest event's thunk.  Its key and tag
    are readable via {!popped_fire} / {!popped_seq} / {!popped_own}
    until the next pop.  @raise Empty_queue when empty. *)

val popped_fire : t -> int
val popped_seq : t -> int
val popped_own : t -> int

val clear : t -> unit
(** Drops every event (and the heap's references to their thunks). *)
