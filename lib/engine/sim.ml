type time = int

type t = {
  q : Eventq.t; (* single-domain heap; holds every event between runs *)
  mutable clock : time;
  mutable seq : int; (* insertion counter: the tie-break after [fire] *)
  mutable executed : int;
  mutable peak : int;
  mutable clamped : int;
  (* per-shard attribution: every event is routed to the shard the
     windowed engine would run it on, so per-shard observability cells
     fill identically for every job count *)
  mutable sexec : int array; (* events executed, per shard *)
  mutable sxsend : int array; (* cross-shard sends originated, per shard *)
  mutable sclamp : int array; (* clamps attributed, per shard *)
  mutable stamps : bool;
      (* publish a (time, insertion-seq) pseudo-key per event so the
         observability layer can stamp emissions; off by default to keep
         the fast path free of per-event stores *)
  mutable hook : (shard:int -> now:int -> unit) option;
  mutable engine : Shard.t option; (* windowed engine, from make_sharded *)
  mutable jobs : int;
  mutable windowed : bool;
      (* a windowed run is executing: scheduling goes to [engine] *)
}

type stats = { s_executed : int; s_peak : int; s_clamped : int }

let create () =
  {
    q = Eventq.create ();
    clock = 0;
    seq = 0;
    executed = 0;
    peak = 0;
    clamped = 0;
    sexec = Array.make 1 0;
    sxsend = Array.make 1 0;
    sclamp = Array.make 1 0;
    stamps = false;
    hook = None;
    engine = None;
    jobs = 1;
    windowed = false;
  }

let nshards sim = Array.length sim.sexec

let set_topology sim ~nshards =
  if nshards < 1 then invalid_arg "Sim.set_topology: nshards < 1";
  if nshards <> Array.length sim.sexec then begin
    sim.sexec <- Array.make nshards 0;
    sim.sxsend <- Array.make nshards 0;
    sim.sclamp <- Array.make nshards 0
  end

let make_sharded sim ~nshards ~lookahead =
  match sim.engine with
  | Some e when Shard.nshards e = nshards && Shard.lookahead e = lookahead -> ()
  | Some _ -> invalid_arg "Sim.make_sharded: engine already installed"
  | None ->
    let e = Shard.create ~nshards ~lookahead in
    set_topology sim ~nshards;
    Shard.set_on_event e sim.hook;
    sim.engine <- Some e

let set_jobs sim jobs =
  if jobs > 1 && sim.engine = None then invalid_arg "Sim.set_jobs: no windowed engine";
  sim.jobs <- max 1 (min jobs (nshards sim))

let set_strict sim v = Option.iter (fun e -> Shard.set_strict e v) sim.engine

let enable_stamps sim = sim.stamps <- true

let set_on_event sim h =
  sim.hook <- h;
  Option.iter (fun e -> Shard.set_on_event e h) sim.engine

(* [f e] when the windowed engine exists, [z] otherwise *)
let with_engine sim f z = match sim.engine with Some e -> f e | None -> z

let now sim =
  match sim.engine with Some e when sim.windowed -> Shard.now e | _ -> sim.clock

let events_executed sim = sim.executed + with_engine sim Shard.executed 0

let pending sim = Eventq.length sim.q + with_engine sim Shard.pending 0

let peak_pending sim = max sim.peak (with_engine sim Shard.peak 0)

let stats sim =
  {
    s_executed = events_executed sim;
    s_peak = peak_pending sim;
    s_clamped = sim.clamped + with_engine sim Shard.clamped 0;
  }

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

let shard_stats sim =
  let own =
    Array.init (nshards sim) (fun i ->
        {
          st_id = i;
          st_executed = sim.sexec.(i);
          st_xsends = sim.sxsend.(i);
          st_clamped = sim.sclamp.(i);
          st_peak = 0;
          st_merges = 0;
          st_stalls = 0;
          st_wall = 0.;
        })
  in
  with_engine sim
    (fun e ->
      Array.map2
        (fun a b ->
          {
            b with
            st_executed = a.st_executed + b.st_executed;
            st_xsends = a.st_xsends + b.st_xsends;
            st_clamped = a.st_clamped + b.st_clamped;
          })
        own (Shard.shard_stats e))
    own

let windows sim = with_engine sim Shard.windows 0

let barrier_wall sim = with_engine sim Shard.barrier_wall 0.

let shard_executed sim i = sim.sexec.(i) + with_engine sim (fun e -> Shard.shard_executed e i) 0

let shard_xsends sim i = sim.sxsend.(i) + with_engine sim (fun e -> Shard.shard_xsends e i) 0

let push sim ~fire ~own f =
  sim.seq <- sim.seq + 1;
  Eventq.push sim.q ~fire ~seq:sim.seq ~own f;
  let len = Eventq.length sim.q in
  if len > sim.peak then sim.peak <- len

(* Single-domain scheduling with per-shard attribution.  [dst] is the
   shard that will execute the event, carried through the heap as its
   [own] tag. *)
let schedule sim ~dst t f =
  let c = Shard.cur () in
  let fire =
    if t < sim.clock then begin
      sim.clamped <- sim.clamped + 1;
      let attr = if c >= 0 && c < Array.length sim.sclamp then c else dst in
      sim.sclamp.(attr) <- sim.sclamp.(attr) + 1;
      sim.clock
    end
    else t
  in
  if c >= 0 && c <> dst && c < Array.length sim.sxsend then
    sim.sxsend.(c) <- sim.sxsend.(c) + 1;
  push sim ~fire ~own:dst f

let at sim t f =
  match sim.engine with
  | Some e when sim.windowed -> Shard.at_shard e ~shard:(Shard.cur ()) t f
  | _ ->
    let c = Shard.cur () in
    let dst = if c >= 0 && c < Array.length sim.sexec then c else 0 in
    schedule sim ~dst t f

let at_shard sim ~shard t f =
  match sim.engine with
  | Some e when sim.windowed -> Shard.at_shard e ~shard t f
  | _ ->
    (* tolerate out-of-range shards (a simulator whose topology was
       never declared): attribution falls back to shard 0 *)
    let dst = if shard >= 0 && shard < Array.length sim.sexec then shard else 0 in
    schedule sim ~dst t f

let after sim d f =
  if d < 0 then invalid_arg "Sim.after: negative delay";
  at sim (now sim + d) f

let run_single sim ~limit =
  let q = sim.q in
  let rec go n =
    if n >= limit then
      failwith
        (Printf.sprintf
           "Sim.run: event limit exhausted (livelock?): limit=%d executed=%d clock=%d \
            pending=%d"
           limit sim.executed sim.clock (Eventq.length q))
    else if Eventq.is_empty q then n
    else begin
      let f = Eventq.pop_min q in
      let t = Eventq.popped_fire q in
      let own = Eventq.popped_own q in
      if t > sim.clock then sim.clock <- t;
      sim.executed <- sim.executed + 1;
      sim.sexec.(own) <- sim.sexec.(own) + 1;
      if sim.stamps then
        (* pseudo-key ordered exactly like the pop order: fire time,
           then insertion sequence (materialized lazily so unobserved
           events allocate nothing) *)
        Shard.set_run_key_seq ~fire:t ~sched:(Eventq.popped_seq q);
      Shard.set_cur own;
      (match sim.hook with Some h -> h ~shard:own ~now:t | None -> ());
      (match f () with
      | () -> Shard.set_cur (-1)
      | exception e ->
        Shard.set_cur (-1);
        raise e);
      go (n + 1)
    end
  in
  go 0

(* Hand the pending events to the windowed engine as roots and run it. *)
let run_windowed sim e ~limit =
  let q = sim.q in
  while not (Eventq.is_empty q) do
    let f = Eventq.pop_min q in
    Shard.push_root e ~fire:(Eventq.popped_fire q) ~seq:(Eventq.popped_seq q)
      ~own:(Eventq.popped_own q) f
  done;
  sim.windowed <- true;
  Fun.protect
    ~finally:(fun () ->
      sim.windowed <- false;
      sim.clock <- max sim.clock (Shard.now e))
    (fun () -> Shard.run e ~jobs:sim.jobs ~limit)

let run sim ?(limit = max_int) () =
  match sim.engine with
  | Some e when sim.jobs > 1 -> run_windowed sim e ~limit
  | _ -> run_single sim ~limit
