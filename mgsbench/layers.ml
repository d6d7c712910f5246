(* Layer microbenchmarks: host nanoseconds per operation of each
   simulator layer, from bechamel-timed calls to the layers' public
   functions.  Batched tests (a loop of [batch] operations per call)
   report the per-operation figure; where a test cannot avoid fixed
   per-call work (a fresh heap, a drained event queue) that work is
   amortized over the batch and stated beside the test. *)

module Sim = Mgs_engine.Sim
module Shardq = Mgs_engine.Shardq
module Tlb = Mgs_svm.Tlb
module Pagedata = Mgs_mem.Pagedata
module Coherence = Mgs_cache.Coherence
module Lan = Mgs_net.Lan
module Span = Mgs_obs.Span
module Trace = Mgs_obs.Trace
module Event = Mgs_obs.Event

let batch = 256

(* ns per call of every test, by OLS over bechamel's samples *)
let measure tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] (Test.make_grouped ~name:"" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  List.map
    (fun t ->
      let name = Test.Elt.name t in
      let est =
        match Analyze.OLS.estimates (Hashtbl.find res name) with
        | Some [ e ] -> e
        | _ -> failwith ("mgsbench: no estimate for " ^ name)
      in
      (* make_grouped prefixes the group name and a slash *)
      let short = String.sub name 1 (String.length name - 1) in
      (short, est))
    (Test.elements (Test.make_grouped ~name:"" tests))

let test name f = Bechamel.Test.make ~name (Bechamel.Staged.stage f)

(* --- engine ---------------------------------------------------------- *)

(* [batch] events scheduled with Sim.at and drained by one Sim.run on
   the sequential engine. *)
let engine_event () =
  let sim = Sim.create () in
  let nop () = () in
  fun () ->
    let t = Sim.now sim in
    for i = 1 to batch do
      Sim.at sim (t + i) nop
    done;
    ignore (Sim.run sim ())

(* [batch] pushes in scrambled fire order, then [batch] pop_min. *)
let shardq_pushpop () =
  let q = Shardq.create () in
  let keys =
    Array.init batch (fun i ->
        Shardq.key ~fire:(i * 7919 mod batch) ~sched:0 ~src:0 ~seq:i ~parent:Shardq.no_parent)
  in
  let nop () = () in
  fun () ->
    Array.iter (fun key -> Shardq.push q ~key ~own:0 nop) keys;
    for _ = 1 to batch do
      ignore (Shardq.pop_min q : unit -> unit)
    done

(* A token bounced between the two shards of a 2-job windowed engine:
   every hop crosses shards at exactly the lookahead, so each hop opens
   one window.  Includes the helper domain's spawn and join, amortized
   over [pings] windows. *)
let pings = 1000

let window_ping () =
  let lookahead = 1000 in
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead;
  Sim.set_jobs sim 2;
  let rec hop shard n () =
    if n > 0 then
      Sim.at_shard sim ~shard:(1 - shard) (Sim.now sim + lookahead) (hop (1 - shard) (n - 1))
  in
  ( sim,
    fun () ->
      Sim.at_shard sim ~shard:0 (Sim.now sim) (hop 0 pings);
      ignore (Sim.run sim ()) )

(* --- svm -------------------------------------------------------------- *)

let tlb_hit () =
  let t = Tlb.create () in
  Tlb.fill t ~vpn:3 ~mode:Tlb.Rw;
  fun () -> ignore (Sys.opaque_identity (Tlb.grants t ~vpn:3 ~write:false))

(* [batch] fills of distinct pages into an emptied TLB (the clear is
   amortized over the batch). *)
let tlb_fill () =
  let t = Tlb.create () in
  fun () ->
    Tlb.clear t;
    for v = 0 to batch - 1 do
      Tlb.fill t ~vpn:v ~mode:Tlb.Ro
    done

(* --- api, inside a one-processor machine ------------------------------ *)

(* Api.read/write are fiber operations, so the timing loop runs inside
   the machine's only processor: after the first access every call is a
   last-page hit (translation charge, cache-model access, and the yield
   to the event queue every 32nd access).  An empty body measured in
   the same fiber is subtracted. *)
let api () =
  let m = Mgs.Machine.create (Mgs.Machine.config ~nprocs:1 ~cluster:1 ()) in
  let a = Mgs.Machine.alloc m ~words:256 ~home:Mgs_mem.Allocator.Blocked in
  let out = ref [] in
  ignore
    (Mgs.Machine.run m (fun ctx ->
         let x = ref 0.0 in
         out :=
           measure
             [
               test "empty" (fun () -> ignore (Sys.opaque_identity !x));
               test "read" (fun () -> x := Mgs.Api.read ctx (a + 5));
               test "write" (fun () -> Mgs.Api.write ctx (a + 5) 1.0);
             ]));
  let get n = List.assoc n !out in
  [ ("api.read_ns", get "read" -. get "empty"); ("api.write_ns", get "write" -. get "empty") ]

(* --- cache ------------------------------------------------------------ *)

let cache_access () =
  let m = Mgs.Machine.create (Mgs.Machine.config ~nprocs:1 ~cluster:1 ()) in
  let c = m.Mgs.State.caches.(0) in
  fun () ->
    ignore
      (Sys.opaque_identity (Coherence.access c ~proc:0 ~addr:5 ~frame_owner:0 ~kind:Coherence.Read))

(* --- mem: twin/diff at a dirty fraction of one 1 KB page --------------- *)

let dirty_page pct =
  let geom = Mgs_mem.Geom.create () in
  let p = Pagedata.create geom in
  let twin = Pagedata.twin_of p in
  let n = Array.length p in
  let k = max 1 (n * pct / 100) in
  for j = 0 to k - 1 do
    let off = j * n / k in
    p.(off) <- float_of_int (j + 1);
    Pagedata.mark twin off
  done;
  (geom, p, twin)

let diff pct =
  let _, p, twin = dirty_page pct in
  fun () -> ignore (Sys.opaque_identity (Pagedata.diff p ~twin))

let apply pct =
  let geom, p, twin = dirty_page pct in
  let d = Pagedata.diff p ~twin in
  let dst = Pagedata.create geom in
  fun () -> Pagedata.apply_diff dst d

(* --- net and am: [batch] sends, then the deliveries drained ------------ *)

let lan_send ~faults =
  let sim = Sim.create () in
  let lan = Lan.create sim Mgs_machine.Costs.default ~nssmps:2 in
  if faults then
    Lan.set_fault_plan lan
      (Some (Mgs_net.Fault.make Mgs_net.Fault.default_chaos ~seed:42 ~nssmps:2));
  let env = Mgs_net.Envelope.make ~src_ssmp:0 ~dst_ssmp:1 ~words:0 () in
  let k _ = () in
  ( Some sim,
    fun () ->
      for _ = 1 to batch do
        Lan.send lan env ~at:(Sim.now sim) k
      done;
      ignore (Sim.run sim ()) )

(* Intra-SSMP posts, so the LAN's share stays with net.send_ns. *)
let am_post () =
  let m = Mgs.Machine.create (Mgs.Machine.config ~nprocs:2 ~cluster:2 ()) in
  let am = m.Mgs.State.am in
  let sim = Mgs.Machine.sim m in
  let k _ = () in
  ( Some sim,
    fun () ->
      for _ = 1 to batch do
        Mgs_am.Am.post am ~tag:"BENCH" ~src:0 ~dst:1 ~words:0 ~cost:0 k
      done;
      ignore (Sim.run sim ()) )

(* --- obs --------------------------------------------------------------- *)

let span_open_close () =
  let cap = 65536 in
  let st = ref (Span.create ~capacity:cap ()) in
  fun () ->
    if Span.count !st >= cap - 1 then st := Span.create ~capacity:cap ();
    let c =
      Span.open_span_x !st ~parent:Span.none ~time:0 ~label:"bench" ~engine:Event.Network
        ~vpn:(-1) ~src:0 ~dst:1 ~src_ssmp:0 ~dst_ssmp:1 ~words:0
    in
    Span.close !st c ~time:1

let trace_emit () =
  let tr = Trace.create ~capacity:4096 () in
  let ev = Event.make ~time:0 ~engine:Event.Network ~tag:"BENCH" () in
  fun () -> Trace.emit tr ev

(* Every microbenchmark: (metric name, ns per operation), and for the
   tests that drain an event queue, the engine events each operation
   caused — time the attribution charges to the engine, not to them. *)
let run () =
  let window_sim, window_fn = window_ping () in
  window_fn ();
  let hops = Sim.windows window_sim in
  let plain f = (None, f) in
  let tests =
    [
      ("engine.event_ns", batch, plain (engine_event ()));
      ("engine.shardq_ns", batch, plain (shardq_pushpop ()));
      ("engine.window_ns", hops, plain window_fn);
      ("svm.tlb_hit_ns", 1, plain (tlb_hit ()));
      ("svm.tlb_fill_ns", batch, plain (tlb_fill ()));
      ("cache.access_ns", 1, plain (cache_access ()));
      ("mem.diff_ns.1pct", 1, plain (diff 1));
      ("mem.diff_ns.10pct", 1, plain (diff 10));
      ("mem.diff_ns.100pct", 1, plain (diff 100));
      ("mem.apply_ns.1pct", 1, plain (apply 1));
      ("mem.apply_ns.10pct", 1, plain (apply 10));
      ("mem.apply_ns.100pct", 1, plain (apply 100));
      ("net.send_ns", batch, lan_send ~faults:false);
      ("net.send_faulty_ns", batch, lan_send ~faults:true);
      ("am.post_ns", batch, am_post ());
      ("obs.span_ns", 1, plain (span_open_close ()));
      ("obs.emit_ns", 1, plain (trace_emit ()));
    ]
  in
  let events =
    List.filter_map
      (fun (name, ops, (sim, f)) ->
        Option.map
          (fun sim ->
            let e0 = Sim.events_executed sim in
            f ();
            (name, float_of_int (Sim.events_executed sim - e0) /. float_of_int ops))
          sim)
      tests
  in
  let est = measure (List.map (fun (name, _, (_, f)) -> test name f) tests) in
  ( List.map (fun (name, ops, _) -> (name, List.assoc name est /. float_of_int ops)) tests
    @ api (),
    events )
