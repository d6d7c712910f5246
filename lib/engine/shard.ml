(* Windowed discrete-event engine: one event partition ("shard") per
   SSMP cluster, drained concurrently on OCaml domains and synchronized
   conservatively with the inter-SSMP LAN latency as the lookahead
   window.  {!Sim} runs it only when two or more jobs are asked for; a
   one-job run uses {!Sim}'s own single-domain heap, which is also the
   order this engine must reproduce.

   Every event carries a canonical genealogy key (see {!Shardq}).  Each
   window executes every event with [fire < T + lookahead], where [T]
   is the globally earliest pending fire time.  Cross-shard events are
   appended to the scheduling shard's outbox and merged into the
   destination heap at the barrier; because the LAN delivers cross-SSMP
   work no earlier than [send + lookahead], a message created inside a
   window always fires at or after the window's end, so each shard's
   execution order is its subsequence of the single-domain order —
   which is what makes the two engines produce byte-identical results.

   Events pending when a run starts come from the single-domain heap as
   roots ({!Shardq.root}): they order by their insertion there, whatever
   shard they target.

   Shard-local clocks, counters and statistics are only ever touched by
   the domain currently running that shard; the window barrier's mutex
   publishes them between domains. *)

type shard = {
  id : int;
  q : Shardq.t;
  mutable clock : int;
  mutable ctr : int; (* scheduling counter: [seq] source *)
  mutable running : Shardq.key; (* key of the event being executed *)
  mutable executed : int;
  mutable clamped : int; (* past-due schedules clamped to the clock *)
  mutable peak : int;
  mutable outbox : outmsg list; (* cross-shard sends, merged at barriers *)
  mutable failure : exn option; (* first exception raised while draining *)
  (* engine self-profiling; only the owning domain writes these *)
  mutable xsends : int; (* cross-shard sends originated by this shard *)
  mutable merges : int; (* outbox messages merged INTO this shard *)
  mutable stalls : int; (* windows in which this shard drained 0 events *)
  mutable wall : float; (* host seconds spent draining this shard *)
}

and outmsg = { o_dst : int; o_key : Shardq.key; o_fn : unit -> unit }

type t = {
  nshards : int;
  lookahead : int;
  shards : shard array;
  mutable strict : bool;
  mutable windows : int; (* lookahead windows opened *)
  mutable barrier_wall : float; (* coordinator seconds waiting at barriers *)
  mutable on_event : (shard:int -> now:int -> unit) option;
      (* called on the executing domain immediately before each event,
         after the shard clock and counters have advanced.  Used by the
         metrics sampler; the callback must only touch state owned by
         [shard] or the determinism contract breaks. *)
}

exception Late_delivery of { dst : int; fire : int; clock : int }

(* Which shard the running domain is currently executing; -1 between
   events (host code).  Domain-local so concurrent shards each see
   their own. *)
let cur_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let cur () = Domain.DLS.get cur_key

let set_cur v = Domain.DLS.set cur_key v

(* Genealogy key of the event this domain is currently executing.  The
   observability layer stamps every emission with it so per-shard cells
   can be merged back into the canonical execution order at export.
   Only meaningful while [cur () >= 0]; the single-domain engine
   publishes a (time, insertion-seq) pseudo-key here when stamps are
   enabled. *)
let run_key : Shardq.key Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Shardq.no_parent)

(* The single-domain engine's pseudo-key is two scalars; minting a key
   record per pop would put an allocation on every event whether or not
   anything observes it, so the record is materialized lazily on the
   first [running_key] call for that event. *)
type pending = { mutable p_fire : int; mutable p_sched : int; mutable p_set : bool }

let pending_key : pending Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { p_fire = 0; p_sched = 0; p_set = false })

let running_key () =
  let p = Domain.DLS.get pending_key in
  if p.p_set then begin
    p.p_set <- false;
    Domain.DLS.set run_key
      (Shardq.key ~fire:p.p_fire ~sched:p.p_sched ~src:0 ~seq:0
         ~parent:Shardq.no_parent)
  end;
  Domain.DLS.get run_key

let set_run_key k =
  (Domain.DLS.get pending_key).p_set <- false;
  Domain.DLS.set run_key k

(* Forget the last event's key once a run ends: a genealogy key holds
   its whole ancestry, which would otherwise stay reachable. *)
let clear_run_key () = set_run_key Shardq.no_parent

let set_run_key_seq ~fire ~sched =
  let p = Domain.DLS.get pending_key in
  p.p_fire <- fire;
  p.p_sched <- sched;
  p.p_set <- true

(* Scalar access to an unmaterialized pseudo-key, for recorders that
   store stamps unboxed.  Meaningful only while [running_scalar ()]. *)
let running_scalar () = (Domain.DLS.get pending_key).p_set

let running_fire () = (Domain.DLS.get pending_key).p_fire

let running_sched () = (Domain.DLS.get pending_key).p_sched

let create ~nshards ~lookahead =
  if nshards < 1 then invalid_arg "Shard.create: nshards < 1";
  if lookahead < 1 then invalid_arg "Shard.create: lookahead < 1";
  {
    nshards;
    lookahead;
    shards =
      Array.init nshards (fun id ->
          {
            id;
            q = Shardq.create ();
            clock = 0;
            ctr = 0;
            running = Shardq.no_parent;
            executed = 0;
            clamped = 0;
            peak = 0;
            outbox = [];
            failure = None;
            xsends = 0;
            merges = 0;
            stalls = 0;
            wall = 0.;
          });
    strict = false;
    windows = 0;
    barrier_wall = 0.;
    on_event = None;
  }

let nshards eng = eng.nshards

let lookahead eng = eng.lookahead

let set_strict eng v = eng.strict <- v

let set_on_event eng h = eng.on_event <- h

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

let now eng =
  let c = cur () in
  if c >= 0 then eng.shards.(c).clock
  else
    (* host view: the engine has advanced to the latest shard clock,
       exactly as the single-domain clock ends at the last executed time *)
    Array.fold_left (fun acc s -> max acc s.clock) 0 eng.shards

let executed eng = Array.fold_left (fun acc s -> acc + s.executed) 0 eng.shards

let clamped eng = Array.fold_left (fun acc s -> acc + s.clamped) 0 eng.shards

let pending eng =
  Array.fold_left (fun acc s -> acc + Shardq.length s.q + List.length s.outbox) 0 eng.shards

let peak eng = Array.fold_left (fun acc s -> acc + s.peak) 0 eng.shards

(* Per-shard self-profiling snapshot.  [st_executed] and [st_xsends] are
   deterministic (a pure function of the simulated program); the rest
   depend on the job count, the host, and outbox timing, and are
   deliberately excluded from the byte-identity contract. *)
type shard_stat = {
  st_id : int;
  st_executed : int;
  st_xsends : int;
  st_clamped : int;
  st_peak : int;
  st_merges : int;
  st_stalls : int;
  st_wall : float;
}

let shard_stats eng =
  Array.map
    (fun s ->
      {
        st_id = s.id;
        st_executed = s.executed;
        st_xsends = s.xsends;
        st_clamped = s.clamped;
        st_peak = s.peak;
        st_merges = s.merges;
        st_stalls = s.stalls;
        st_wall = s.wall;
      })
    eng.shards

let windows eng = eng.windows

let barrier_wall eng = eng.barrier_wall

let shard_executed eng i = eng.shards.(i).executed

let shard_xsends eng i = eng.shards.(i).xsends

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let push_local s ~key fn =
  Shardq.push s.q ~key ~own:s.id fn;
  let len = Shardq.length s.q in
  if len > s.peak then s.peak <- len

(* Hand over an event pending in the single-domain heap, before a run. *)
let push_root eng ~fire ~seq ~own fn =
  push_local eng.shards.(own) ~key:(Shardq.root ~fire ~seq) fn

(* Schedule [fn] to run on shard [dst] at absolute time [t], from inside
   an event.  The key is minted from the executing shard, with the
   executing event's key as parent.  Past-due times are clamped to the
   executing shard's clock — the single-domain engine's clamp to its
   global clock, which during an event is the same value — and
   counted. *)
let at_shard eng ~shard:dst t fn =
  if dst < 0 || dst >= eng.nshards then invalid_arg "Sim.at_shard: bad shard";
  let s = eng.shards.(cur ()) in
  let fire =
    if t < s.clock then begin
      s.clamped <- s.clamped + 1;
      s.clock
    end
    else t
  in
  let seq = s.ctr in
  s.ctr <- seq + 1;
  let key = Shardq.key ~fire ~sched:s.clock ~src:s.id ~seq ~parent:s.running in
  if s.id <> dst then begin
    (* cross-shard send: park in the outbox; the barrier merges it into
       [dst]'s heap before the next window *)
    s.xsends <- s.xsends + 1;
    s.outbox <- { o_dst = dst; o_key = key; o_fn = fn } :: s.outbox
  end
  else push_local s ~key fn

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let limit_msg ~limit ~executed ~clock ~pending =
  Printf.sprintf
    "Sim.run: event limit exhausted (livelock?): limit=%d executed=%d clock=%d pending=%d"
    limit executed clock pending

(* Shard [i] is pinned to worker [i mod jobs] for the whole run so fiber
   continuations never migrate between domains mid-run. *)

(* Drain every event of [s] with [fire < wend].  [allow] bounds the
   number of events this one drain may execute (livelock guard: a shard
   stuck rescheduling itself inside one window would otherwise never
   reach the barrier). *)
let drain eng s ~wend ~allow =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  (try
     let continue_ = ref true in
     while !continue_ do
       match Shardq.min_fire s.q with
       | Some f when f < wend ->
         if !n >= allow then
           failwith
             (limit_msg ~limit:allow ~executed:(s.executed) ~clock:s.clock
                ~pending:(Shardq.length s.q))
         else begin
           let fn = Shardq.pop_min s.q in
           let t = Shardq.popped_fire s.q in
           if t > s.clock then s.clock <- t;
           s.executed <- s.executed + 1;
           s.running <- Shardq.popped_key s.q;
           incr n;
           set_cur s.id;
           set_run_key s.running;
           (match eng.on_event with Some h -> h ~shard:s.id ~now:t | None -> ());
           fn ();
           s.running <- Shardq.no_parent;
           set_cur (-1)
         end
       | _ -> continue_ := false
     done
   with e ->
     s.running <- Shardq.no_parent;
     set_cur (-1);
     s.failure <- Some e);
  if !n = 0 then s.stalls <- s.stalls + 1;
  s.wall <- s.wall +. (Unix.gettimeofday () -. t0);
  !n

(* Merge every outbox message into its destination heap.  Runs on the
   coordinating domain while the workers are parked at the barrier.  A
   message firing before its destination's clock means the lookahead
   argument was violated (an engine or cost-model bug, not a program
   bug): it is counted as a clamp on the destination and, under strict
   mode, raised. *)
let flush_outboxes eng =
  Array.iter
    (fun s ->
      let msgs = s.outbox in
      s.outbox <- [];
      List.iter
        (fun o ->
          let d = eng.shards.(o.o_dst) in
          let key =
            if o.o_key.Shardq.k_fire < d.clock then begin
              d.clamped <- d.clamped + 1;
              if eng.strict then
                raise
                  (Late_delivery
                     { dst = d.id; fire = o.o_key.Shardq.k_fire; clock = d.clock });
              Shardq.refire o.o_key ~fire:d.clock
            end
            else o.o_key
          in
          push_local d ~key o.o_fn;
          d.merges <- d.merges + 1)
        msgs)
    eng.shards

let window_min eng =
  Array.fold_left
    (fun acc s ->
      match Shardq.min_fire s.q with
      | None -> acc
      | Some f -> ( match acc with None -> Some f | Some a -> Some (min a f)))
    None eng.shards

let run eng ~jobs ~limit =
  let nsh = eng.nshards in
  Array.iter (fun s -> s.failure <- None) eng.shards;
  let n0 = executed eng in
  (* barrier state, all under [mu] *)
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let epoch = ref 0 in
  let done_count = ref 0 in
  let wend = ref 0 in
  let allow = ref 0 in
  let stop = ref false in
  let drain_assigned w =
    let executed_here = ref 0 in
    let wendv = !wend and allowv = !allow in
    let i = ref w in
    while !i < nsh do
      let s = eng.shards.(!i) in
      if s.failure = None then
        executed_here := !executed_here + drain eng s ~wend:wendv ~allow:allowv;
      i := !i + jobs
    done;
    !executed_here
  in
  let worker w () =
    let my_epoch = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock mu;
      while !epoch = !my_epoch && not !stop do
        Condition.wait cv mu
      done;
      if !stop then begin
        Mutex.unlock mu;
        running := false
      end
      else begin
        my_epoch := !epoch;
        Mutex.unlock mu;
        ignore (drain_assigned w);
        Mutex.lock mu;
        incr done_count;
        Condition.broadcast cv;
        Mutex.unlock mu
      end
    done
  in
  let domains = Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1) ())) in
  let shutdown () =
    Mutex.lock mu;
    stop := true;
    Condition.broadcast cv;
    Mutex.unlock mu;
    Array.iter Domain.join domains;
    clear_run_key ()
  in
  Fun.protect ~finally:shutdown (fun () ->
      let running = ref true in
      while !running do
        flush_outboxes eng;
        match window_min eng with
        | None -> running := false
        | Some t ->
          let total = executed eng - n0 in
          if total >= limit then
            failwith
              (limit_msg ~limit ~executed:(executed eng) ~clock:(now eng)
                 ~pending:(pending eng));
          (* open the window *)
          eng.windows <- eng.windows + 1;
          Mutex.lock mu;
          wend := t + eng.lookahead;
          allow := limit - total;
          incr epoch;
          done_count := 0;
          Condition.broadcast cv;
          Mutex.unlock mu;
          (* the coordinator is worker 0 *)
          ignore (drain_assigned 0);
          let b0 = Unix.gettimeofday () in
          Mutex.lock mu;
          while !done_count < jobs - 1 do
            Condition.wait cv mu
          done;
          Mutex.unlock mu;
          eng.barrier_wall <- eng.barrier_wall +. (Unix.gettimeofday () -. b0);
          (* deterministic failure propagation: every worker has
             stopped; report the lowest-numbered failing shard *)
          Array.iter
            (fun s -> match s.failure with Some e -> raise e | None -> ())
            eng.shards
      done);
  executed eng - n0
