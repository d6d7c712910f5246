(* Bounded event trace, sharded per SSMP.

   Each shard ("cell") owns a private event ring and per-tag histogram
   table: under the parallel engine every domain emits only into its
   own cell, so the hot path shares nothing.  Reads merge the cells —
   events by their genealogy stamp (the key of the simulator event that
   emitted them), histograms exactly — reconstructing the canonical
   execution order, so every export is byte-identical across job
   counts.  A single-cell trace skips stamping and behaves exactly as
   the historical single-domain implementation.

   Subscribers remain global and run synchronously at every emit: the
   online invariant checker builds cross-shard state, which is exactly
   why an installed subscriber still forces the engine onto one
   domain. *)

type cell = {
  ring : Event.t Ring.t;
  (* Order stamps for the ring's slots, same rotation: the event in slot
     [i] was emitted under the genealogy key [skey.(i)] — or, when that
     slot holds [Shardq.no_parent] (or [skey] was never allocated),
     under the unboxed scalar pseudo-key [(sfire, ssched, 0, 0).(i)]
     the sequential engine published.  Scalar stamps stay unboxed so a
     traced sequential event costs no allocation; they are materialized
     as key records only at merge time (bounded by the ring capacity).
     Each array is allocated on first use — a sequential run never
     allocates [skey], a sharded run never allocates [sfire]/[ssched] —
     and single-cell traces skip stamping entirely. *)
  cell_cap : int;
  mutable skey : Mgs_engine.Shardq.key array;
  mutable sfire : int array;
  mutable ssched : int array;
  hists : (string, Hist.t) Hashtbl.t;
}

type t = {
  ncells : int;
  cells : cell array;
  mutable subscribers : (Event.t -> unit) list;
  spans : Span.t;
  mutable host_seq : int; (* order stamp for host-side emissions *)
}

let default_capacity = 65536

let create ?(capacity = default_capacity) ?span_capacity ?(cells = 1) () =
  if cells < 1 then invalid_arg "Trace.create: cells";
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  (* [capacity] is the TOTAL event budget, divided among the cells, so
     a multi-cell trace costs what the single-cell one did *)
  let cell_cap = max (min capacity 64) ((capacity + cells - 1) / cells) in
  {
    ncells = cells;
    cells =
      Array.init cells (fun _ ->
          {
            ring = Ring.create ~capacity:cell_cap;
            cell_cap;
            skey = [||];
            sfire = [||];
            ssched = [||];
            hists = Hashtbl.create 32;
          });
    subscribers = [];
    spans = Span.create ?capacity:span_capacity ~cells ();
    host_seq = 0;
  }

let subscribe t f = t.subscribers <- f :: t.subscribers

let has_subscribers t = t.subscribers <> []

let spans t = t.spans

let cells t = t.ncells

let cur_cell t =
  let c = Mgs_engine.Shard.cur () in
  if c < 0 || c >= t.ncells then 0 else c

let hist_for cl tag =
  try Hashtbl.find cl.hists tag
  with Not_found ->
    let h = Hist.create () in
    Hashtbl.add cl.hists tag h;
    h

(* A single-cell trace skips the stamp (the ring order is already the
   execution order).  Multi-cell emissions record the executing event's
   genealogy — as scalars when the sequential engine's pseudo-key is
   still unmaterialized, as the (already-allocated) key record when the
   sharded engine minted one — or a synthetic (time, host counter)
   scalar key host-side.  The slot index mirrors [Ring.push]'s write
   position, so the stamp arrays rotate with the ring. *)
let store_key cl slot k =
  if Array.length cl.skey = 0 then
    cl.skey <- Array.make cl.cell_cap Mgs_engine.Shardq.no_parent;
  cl.skey.(slot) <- k

let store_scalar cl slot ~fire ~sched =
  if Array.length cl.sfire = 0 then begin
    cl.sfire <- Array.make cl.cell_cap 0;
    cl.ssched <- Array.make cl.cell_cap 0
  end;
  if Array.length cl.skey > 0 then
    cl.skey.(slot) <- Mgs_engine.Shardq.no_parent;
  cl.sfire.(slot) <- fire;
  cl.ssched.(slot) <- sched

let emit t (e : Event.t) =
  let cl = t.cells.(cur_cell t) in
  if t.ncells > 1 then begin
    let slot = Ring.pushed cl.ring mod cl.cell_cap in
    if Mgs_engine.Shard.cur () >= 0 then
      if Mgs_engine.Shard.running_scalar () then
        store_scalar cl slot ~fire:(Mgs_engine.Shard.running_fire ())
          ~sched:(Mgs_engine.Shard.running_sched ())
      else store_key cl slot (Mgs_engine.Shard.running_key ())
    else begin
      (* Host emissions (outside any event) are rare — a materialized
         synthetic key, ordered by time then a host counter, is fine.
         [sched = max_int] sorts it after every event emission of the
         same instant, matching the sequential engine where host code
         runs only once the queue has drained past that time. *)
      let seq = t.host_seq in
      t.host_seq <- seq + 1;
      store_key cl slot
        (Mgs_engine.Shardq.key ~fire:e.time ~sched:max_int ~src:max_int ~seq
           ~parent:Mgs_engine.Shardq.no_parent)
    end
  end;
  Ring.push cl.ring e;
  Hist.add (hist_for cl e.tag) e.dur;
  List.iter (fun f -> f e) t.subscribers

(* The genealogy key of the event in ring slot [slot]: the recorded key
   record, or a scalar stamp materialized on demand (merge-time only,
   bounded by the ring capacity). *)
let key_at cl slot =
  let k =
    if Array.length cl.skey = 0 then Mgs_engine.Shardq.no_parent
    else cl.skey.(slot)
  in
  if k != Mgs_engine.Shardq.no_parent then k
  else
    Mgs_engine.Shardq.key ~fire:cl.sfire.(slot) ~sched:cl.ssched.(slot) ~src:0
      ~seq:0 ~parent:Mgs_engine.Shardq.no_parent

let emitted t = Array.fold_left (fun acc cl -> acc + Ring.pushed cl.ring) 0 t.cells

let retained t = Array.fold_left (fun acc cl -> acc + Ring.length cl.ring) 0 t.cells

let dropped t = Array.fold_left (fun acc cl -> acc + Ring.dropped cl.ring) 0 t.cells

(* Merge the retained events of every cell into canonical execution
   order: sort by genealogy stamp, ties (same event emitting several
   events — necessarily one cell) by position in that cell's ring.
   Single-cell: the ring order, no sort. *)
let merged t =
  if t.ncells = 1 then Array.of_list (Ring.to_list t.cells.(0).ring)
  else begin
    let total = retained t in
    let nil = Event.make ~time:0 ~engine:Event.Network ~tag:"" () in
    let entries = Array.make total (Mgs_engine.Shardq.no_parent, 0, nil) in
    let idx = ref 0 in
    Array.iter
      (fun cl ->
        let cap = Ring.capacity cl.ring in
        let start = (Ring.pushed cl.ring - Ring.length cl.ring) mod cap in
        let pos = ref 0 in
        Ring.iter
          (fun ev ->
            entries.(!idx) <- (key_at cl ((start + !pos) mod cap), !pos, ev);
            incr idx;
            incr pos)
          cl.ring)
      t.cells;
    Array.sort
      (fun (k1, p1, _) (k2, p2, _) ->
        let c = Mgs_engine.Shardq.cmp_key k1 k2 in
        if c <> 0 then c else compare p1 p2)
      entries;
    Array.map (fun (_, _, e) -> e) entries
  end

(* Events with transaction IDs translated to their dense export values
   (identity for a single-cell trace). *)
let merged_mapped t =
  let tx = Span.txn_mapper t.spans in
  Array.map
    (fun (e : Event.t) ->
      let m = tx e.txn in
      if m = e.txn then e else { e with txn = m })
    (merged t)

let events t = Array.to_list (merged_mapped t)

let hist t tag =
  let found = ref None in
  Array.iter
    (fun cl ->
      match Hashtbl.find_opt cl.hists tag with
      | None -> ()
      | Some h ->
        let acc =
          match !found with
          | Some acc -> acc
          | None ->
            let acc = Hist.create () in
            found := Some acc;
            acc
        in
        Hist.merge ~into:acc h)
    t.cells;
  !found

let histograms t =
  let tags = Hashtbl.create 32 in
  Array.iter
    (fun cl -> Hashtbl.iter (fun tag _ -> Hashtbl.replace tags tag ()) cl.hists)
    t.cells;
  let tag_list = List.sort compare (Hashtbl.fold (fun tag () acc -> tag :: acc) tags []) in
  List.map (fun tag -> (tag, Option.get (hist t tag))) tag_list

(* --- Chrome trace_event export ------------------------------------- *)

(* All strings flowing into the JSON pass through {!Json.escape}, which
   handles quotes, backslashes, and control characters, and \u-escapes
   everything outside printable ASCII — a tag with arbitrary bytes can
   no longer produce unparseable output. *)
let json_escape = Json.escape

(* One Chrome "complete" ('X') slice per event: pid = the SSMP where the
   work lands, tid = the processor there, ts..ts+dur the transfer or
   occupancy interval in simulated cycles (1 cycle = 1 "us" on the
   chrome://tracing timeline). *)
let chrome_event buf (e : Event.t) =
  let pid = if e.dst_ssmp >= 0 then e.dst_ssmp else max e.src_ssmp 0 in
  let tid = if e.dst >= 0 then e.dst else max e.src 0 in
  let ts = e.time - max e.dur 0 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"vpn\":%d,\"src\":%d,\"dst\":%d,\"words\":%d,\"cost\":%d,\"txn\":%d}}"
       (json_escape e.tag)
       (Event.engine_name e.engine)
       ts (max e.dur 0) pid tid e.vpn e.src e.dst e.words e.cost e.txn)

let chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n'
  in
  Array.iter
    (fun e ->
      sep ();
      chrome_event buf e)
    (merged_mapped t);
  (* the spans section: async begin/end per span plus parent-to-child
     flow arrows, in the same traceEvents array *)
  Span.chrome_section buf t.spans ~emit_sep:sep;
  (* multi-cell traces add one engine lane per shard: a process_name
     metadata record plus a per-shard emitted-events counter.  Both are
     deterministic (per-shard emission counts are a pure function of
     the simulated program). *)
  if t.ncells > 1 then
    Array.iteri
      (fun c cl ->
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"ssmp%d (shard %d)\"}}"
             c c c);
        let last = ref 0 in
        Ring.iter (fun (ev : Event.t) -> last := ev.time) cl.ring;
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"engine.events\",\"ph\":\"C\",\"ts\":%d,\"pid\":%d,\"args\":{\"emitted\":%d}}"
             !last c (Ring.pushed cl.ring)))
      t.cells;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome t oc = output_string oc (chrome_json t)

(* One line whatever the shard count: a many-shard run whose rings all
   overflow must not bury its output under a line per shard. *)
let pp_overflow_warning ppf t =
  if dropped t > 0 then begin
    Format.fprintf ppf "WARNING: event ring overflowed: %d of %d events dropped" (dropped t)
      (emitted t);
    if t.ncells > 1 then begin
      let overflowed = ref 0 and worst = ref 0 in
      Array.iteri
        (fun c cl ->
          let d = Ring.dropped cl.ring in
          if d > 0 then incr overflowed;
          if d > Ring.dropped t.cells.(!worst).ring then worst := c)
        t.cells;
      let w = t.cells.(!worst).ring in
      Format.fprintf ppf
        " in %d of %d shards (worst: shard %d dropped %d of %d; a quiet shard's intact \
         ring does not recover another shard's history)"
        !overflowed t.ncells !worst (Ring.dropped w) (Ring.pushed w)
    end;
    Format.fprintf ppf
      " — histograms are complete, but the retained event window (and any \
       decomposition derived from it) covers only the last %d events; rerun with a \
       larger trace capacity@."
      (retained t)
  end

let pp_summary ppf t =
  Format.fprintf ppf "events: %d emitted, %d retained, %d dropped@." (emitted t)
    (retained t) (dropped t);
  pp_overflow_warning ppf t;
  if Span.dropped t.spans > 0 then
    Format.fprintf ppf
      "WARNING: span store full: %d spans dropped — the latency decomposition \
       undercounts@."
      (Span.dropped t.spans);
  List.iter
    (fun (tag, h) -> Format.fprintf ppf "  %-14s %a@." tag Hist.pp h)
    (histograms t)
