(* The simulator's end-to-end benchmark.

     dune exec -- ./mgsbench/main.exe \
       --workload water-dsm --seed 1 --seconds 30 --trace 0

   One process runs one workload as a closed loop — one simulation at a
   time, a fresh machine each time — for [--seconds] seconds, with the
   invariant checker off and no trace beyond what the workload itself
   turns on.  Every run is verified (the workload's own verifier plus
   Machine.assert_quiescent) and must repeat the first run's
   sim_events/sim_cycles exactly.  The last line of standard output is
   one JSON object: the end-to-end metrics with [--trace 0], the
   per-layer metrics with [--trace 1].  A trace-1 run also times the
   layer microbenchmarks (layers.ml), attributes each run's host time to
   the layers, and makes one traced run whose phase spans it writes to
   _build/mgsbench/.  The exit status is 1 when any run failed or a
   layer prediction did not hold. *)

module Machine = Mgs.Machine
module Report = Mgs.Report
module Water = Mgs_apps.Water
module Kv = Mgs_serve.Kv
module Sim = Mgs_engine.Sim

(* --- workloads -------------------------------------------------------- *)

type workload = {
  name : string;
  nprocs : int;
  cluster : int;
  par : int;  (** engine domains, as mgs_run --par *)
  make : seed:int -> Mgs_harness.Sweep.workload;
  kv : (seed:int -> Kv.params) option;  (** the serving tier's params *)
  cli : seed:int -> (string * Mgs_harness.Workload.args) option;
      (** the same configuration as mgs_run's --app and its knobs, when
          mgs_run can express it *)
}

let water ~nmol ~seed = { Water.default with Water.nmol; seed }

let args ?size extra = { Mgs_harness.Workload.default_args with size; extra }

(* mgs_run has no water seed knob; it runs Water.default's *)
let water_cli ~nmol ~seed =
  if seed = Water.default.Water.seed then Some ("water", args ~size:nmol []) else None

(* The default mix and load, with popularity epochs of 8 requests
   instead of 64: the hot keys then rotate about 25 times per client,
   so each shard's load averages over many of them and the run's cost
   is a stable function of the seed.  With the default churn, a run's
   sim_cycles spreads by about 20% (interquartile) across seeds, set by
   which shard happened to draw the few hot keys. *)
let kv_params ~seed = { Kv.default with Kv.seed; churn = 8 }

let workloads =
  [
    {
      name = "water-dsm";
      nprocs = 16;
      cluster = 1;
      par = 0;
      make = (fun ~seed -> Water.workload (water ~nmol:128 ~seed));
      kv = None;
      cli = water_cli ~nmol:128;
    };
    {
      name = "water-smp";
      nprocs = 16;
      cluster = 16;
      par = 0;
      make = (fun ~seed -> Water.workload (water ~nmol:512 ~seed));
      kv = None;
      cli = water_cli ~nmol:512;
    };
    {
      name = "kv-serve";
      nprocs = 256;
      cluster = 16;
      par = 2;
      make = (fun ~seed -> Kv.workload (kv_params ~seed));
      kv = Some kv_params;
      cli =
        (fun ~seed ->
          Some ("kv", args [ ("churn", "8"); ("seed", string_of_int seed) ]));
    };
  ]

(* The configuration mgs_run builds: 1000-cycle LAN, 1 KB pages. *)
let config w = Machine.config ~lan_latency:1000 ~par_jobs:w.par ~nprocs:w.nprocs ~cluster:w.cluster ()

let cli_line w ~seed =
  match w.cli ~seed with
  | None -> "no mgs_run equivalent: the seed is not a CLI parameter"
  | Some (app, a) ->
    String.concat " "
      ([ "mgs_run --app"; app; "--procs"; string_of_int w.nprocs; "--cluster"; string_of_int w.cluster ]
      @ (if w.par > 0 then [ "--par"; string_of_int w.par ] else [])
      @ (match a.Mgs_harness.Workload.size with Some n -> [ "--size"; string_of_int n ] | None -> [])
      @ List.concat_map (fun (k, v) -> [ "--param"; k ^ "=" ^ v ]) a.Mgs_harness.Workload.extra)

(* --- host measurement helpers ----------------------------------------- *)

let now = Unix.gettimeofday

(* Allocation and collections over all domains: Gc.quick_stat folds in
   the counts of domains that have ended (the engine joins its helpers
   before Machine.run returns), unlike Gc.allocated_bytes, which counts
   only the calling domain.  The minor collection first flushes this
   domain's partly filled minor heap into the counts. *)
let gc_snapshot () =
  Gc.minor ();
  Gc.quick_stat ()

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

let alloc_mb (a : Gc.stat) (b : Gc.stat) =
  mb_of_words
    (b.minor_words -. a.minor_words +. (b.major_words -. a.major_words)
    -. (b.promoted_words -. a.promoted_words))

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let fi = float_of_int

(* --- one verified run ------------------------------------------------- *)

type sample = {
  create_s : float;
  prepare_s : float;
  run_s : float;
  verify_s : float;
  alloc : float;  (** MB, all domains *)
  minor : int;
  major : int;
  promoted_mb : float;
  barrier_s : float;
  events : int;
  cycles : int;
  error : string option;
}

(* Deterministic per-layer counts of one run.  Values that do not apply
   to a workload are 0. *)
let layer_counts w ~seed (m : Machine.t) (r : Report.t) =
  let p = r.Report.pstats and c = r.Report.cache in
  let accesses =
    c.hits + c.local_misses + c.remote_misses + c.misses_2party + c.misses_3party
  in
  let sim = Machine.sim m in
  let executed = Array.map (fun s -> fi s.Sim.st_executed) (Sim.shard_stats sim) in
  let skew =
    let n = Array.length executed and total = Array.fold_left ( +. ) 0.0 executed in
    if n = 0 || total = 0.0 then 1.0
    else Array.fold_left max 0.0 executed /. (total /. fi n)
  in
  let trace_events, trace_dropped, spans, spans_dropped, span_store =
    match Machine.trace m with
    | None -> (0, 0, 0, 0, None)
    | Some tr ->
      let sp = Mgs_obs.Trace.spans tr in
      ( Mgs_obs.Trace.emitted tr,
        Mgs_obs.Trace.dropped tr,
        Mgs_obs.Span.count sp,
        Mgs_obs.Span.dropped sp,
        Some sp )
  in
  let serve =
    match (w.kv, span_store) with
    | Some params, Some sp ->
      let requests = w.nprocs * (params ~seed).Kv.ops in
      let rows = Mgs_serve.Tail.rows sp in
      let recorded = List.fold_left (fun a row -> a + row.Mgs_harness.Figures.lr_count) 0 rows in
      let p99 op =
        match List.find_opt (fun row -> row.Mgs_harness.Figures.lr_op = op) rows with
        | Some row -> fi row.Mgs_harness.Figures.lr_p99
        | None -> 0.0
      in
      [
        ("serve.requests", "count", fi requests);
        ("serve.span_coverage", "ratio", fi recorded /. fi requests);
        ("serve.get_p99_cycles", "cycles", p99 "kv.get");
        ("serve.put_p99_cycles", "cycles", p99 "kv.put");
      ]
    | _ ->
      [
        ("serve.requests", "count", 0.0);
        ("serve.span_coverage", "ratio", 0.0);
        ("serve.get_p99_cycles", "cycles", 0.0);
        ("serve.put_p99_cycles", "cycles", 0.0);
      ]
  in
  [
    ("engine.events", "count", fi r.Report.sim_events);
    ("engine.windows", "count", fi (Sim.windows sim));
    ("engine.shard_skew", "ratio", skew);
    ("svm.tlb_fills", "count", fi (Array.fold_left (fun a t -> a + Mgs_svm.Tlb.fills t) 0 m.Mgs.State.tlbs));
    ("cache.accesses", "count", fi accesses);
    ("cache.hit_ratio", "ratio", if accesses = 0 then 0.0 else fi c.hits /. fi accesses);
    ("cache.sw_ext", "count", fi c.software_extensions);
    ("proto.read_faults", "count", fi p.read_fetches);
    ("proto.write_faults", "count", fi (p.write_fetches + p.upgrades));
    ("proto.releases", "count", fi p.releases);
    ("proto.invalidations", "count", fi (p.invals + p.one_winvals));
    ("mem.diffs", "count", fi p.diffs);
    ("mem.diff_words", "count", fi p.diff_words);
    ("net.lan_msgs", "count", fi r.Report.lan_messages);
    ("net.lan_words", "count", fi r.Report.lan_words);
    ("am.posts", "count", fi (Mgs_am.Am.total_posted m.Mgs.State.am));
    ("sync.lock_acquires", "count", fi r.Report.lock_acquires);
    ("sync.lock_hit_ratio", "ratio", Report.lock_hit_ratio r);
    ("sync.barriers", "count", fi r.Report.barrier_episodes);
    ("obs.trace_events", "count", fi trace_events);
    ("obs.trace_dropped", "count", fi trace_dropped);
    ("obs.spans", "count", fi spans);
    ("obs.spans_dropped", "count", fi spans_dropped);
  ]
  @ serve

(* Create, prepare, run, verify.  Returns the sample and, for the first
   run of a set, the run's layer counts. *)
let one_run w ~seed ~counts =
  Gc.full_major ();
  let wl = w.make ~seed in
  let t0 = now () in
  let m = Machine.create (config w) in
  let t1 = now () in
  let body, check = wl.Mgs_harness.Sweep.prepare m in
  let t2 = now () in
  let g0 = gc_snapshot () in
  let t3 = now () in
  let outcome = try Ok (Machine.run m body) with e -> Error (Printexc.to_string e) in
  let t4 = now () in
  let g1 = gc_snapshot () in
  let t5 = now () in
  let error, events, cycles, layer =
    match outcome with
    | Error e -> (Some ("run raised " ^ e), 0, 0, [])
    | Ok r ->
      let error =
        if not (Report.completed r) then Some "run did not complete"
        else
          try
            Machine.assert_quiescent m;
            check m;
            None
          with e -> Some ("verification failed: " ^ Printexc.to_string e)
      in
      (error, r.Report.sim_events, r.Report.runtime, if counts then layer_counts w ~seed m r else [])
  in
  let t6 = now () in
  ( {
      create_s = t1 -. t0;
      prepare_s = t2 -. t1;
      run_s = t4 -. t3;
      verify_s = t6 -. t5;
      alloc = alloc_mb g0 g1;
      minor = g1.minor_collections - g0.minor_collections;
      major = g1.major_collections - g0.major_collections;
      promoted_mb = mb_of_words (g1.promoted_words -. g0.promoted_words);
      barrier_s = Sim.barrier_wall (Machine.sim m);
      events;
      cycles;
      error;
    },
    layer )

(* The closed loop: runs back to back until [seconds] have passed, at
   least [min_runs] of them.  A run fails on a verifier error, on
   assert_quiescent, or when its sim_events/sim_cycles differ from the
   first run's. *)
let min_runs = 3

let run_set w ~seed ~seconds =
  let deadline = now () +. seconds in
  let first, counts = one_run w ~seed ~counts:true in
  let samples = ref [ first ] in
  while List.length !samples < min_runs || now () < deadline do
    let s, _ = one_run w ~seed ~counts:false in
    let s =
      if s.error = None && (s.events <> first.events || s.cycles <> first.cycles) then
        {
          s with
          error =
            Some
              (Printf.sprintf "nondeterministic: events %d cycles %d, first run %d %d" s.events
                 s.cycles first.events first.cycles);
        }
      else s
    in
    samples := s :: !samples
  done;
  (List.rev !samples, counts)

(* --- layer predictions -------------------------------------------------- *)

(* What each workload is for, checked on every set: the one-SSMP
   workload must bypass the page protocol, the network and the message
   layer; only the serving tier records a trace; only the serving tier
   runs the windowed engine. *)
let prediction_errors w counts =
  let get n = match List.find_opt (fun (k, _, _) -> k = n) counts with Some (_, _, v) -> v | None -> 0.0 in
  let expect cond msg = if cond then [] else [ msg ] in
  (if w.cluster = w.nprocs then
     List.concat_map
       (fun n -> expect (get n = 0.0) (Printf.sprintf "%s = %.0f, predicted 0" n (get n)))
       [
         "proto.read_faults";
         "proto.write_faults";
         "proto.releases";
         "proto.invalidations";
         "mem.diffs";
         "net.lan_msgs";
         "am.posts";
       ]
   else [])
  @ (if w.kv = None then
       expect (get "obs.trace_events" = 0.0) "obs.trace_events > 0 without a serving tier"
     else [])
  @ expect
      ((get "engine.windows" > 0.0) = (w.par >= 2))
      (Printf.sprintf "engine.windows = %.0f with par %d" (get "engine.windows") w.par)

(* --- the traced run ------------------------------------------------------ *)

(* Host-side spans recorded by this file around each call into the
   simulator, each carrying the Gc.quick_stat deltas over its interval;
   kept in memory and written out when the benchmark ends. *)
type span = {
  s_name : string;
  s_parent : string;
  s_t0 : float;
  s_t1 : float;
  s_alloc_mb : float;
  s_minor : int;
  s_major : int;
  s_promoted_mb : float;
}

let span_s spans name =
  match List.find_opt (fun s -> s.s_name = name) spans with
  | Some s -> s.s_t1 -. s.s_t0
  | None -> 0.0

(* One run with the engine self-profile on (which installs the metrics
   sampler and with it the event trace).  Returns the report, the
   spans, the machine's metrics CSV (which holds the engine.* series),
   the per-shard counts and, for kv, the tail table. *)
let traced_run w ~seed =
  Gc.full_major ();
  let spans = ref [] in
  let origin = now () in
  let with_span ?(parent = "bench.traced") name f =
    let g0 = gc_snapshot () in
    let t0 = now () in
    let result = f () in
    let t1 = now () in
    let g1 = gc_snapshot () in
    spans :=
      {
        s_name = name;
        s_parent = parent;
        s_t0 = t0 -. origin;
        s_t1 = t1 -. origin;
        s_alloc_mb = alloc_mb g0 g1;
        s_minor = g1.minor_collections - g0.minor_collections;
        s_major = g1.major_collections - g0.major_collections;
        s_promoted_mb = mb_of_words (g1.promoted_words -. g0.promoted_words);
      }
      :: !spans;
    result
  in
  let r, csv, shards, tail =
    with_span ~parent:"" "bench.traced" (fun () ->
        let wl = w.make ~seed in
        let m = with_span "bench.create" (fun () -> Machine.create (config w)) in
        let mt = Machine.enable_engine_stats m in
        let body, check = with_span "bench.prepare" (fun () -> wl.Mgs_harness.Sweep.prepare m) in
        let r = with_span "bench.run" (fun () -> Machine.run m body) in
        with_span "bench.quiescent" (fun () -> Machine.assert_quiescent m);
        with_span "bench.verify" (fun () -> check m);
        let tail =
          match (w.kv, Machine.trace m) with
          | Some _, Some tr ->
            with_span "bench.tail" (fun () -> Mgs_serve.Tail.table (Mgs_obs.Trace.spans tr))
          | _ -> ""
        in
        (r, Mgs_obs.Metrics.csv mt, Sim.shard_stats (Machine.sim m), tail))
  in
  (r, List.rev !spans, csv, shards, tail)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let write_trace_file w ~seed ~spans ~shards ~metrics_csv =
  let dir = Filename.concat "_build" "mgsbench" in
  (try Unix.mkdir "_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let base = Filename.concat dir (Printf.sprintf "%s.seed%d" w.name seed) in
  let oc = open_out (base ^ ".spans.json") in
  let span_json s =
    Printf.sprintf
      "{\"name\": %S, \"parent\": %S, \"t0_s\": %s, \"t1_s\": %s, \"alloc_mb\": %s, \
       \"minor\": %d, \"major\": %d, \"promoted_mb\": %s}"
      s.s_name s.s_parent (json_float s.s_t0) (json_float s.s_t1) (json_float s.s_alloc_mb)
      s.s_minor s.s_major (json_float s.s_promoted_mb)
  in
  let shard_json (s : Sim.shard_stat) =
    Printf.sprintf
      "{\"shard\": %d, \"executed\": %d, \"xsends\": %d, \"merges\": %d, \"stalls\": %d, \
       \"wall_s\": %s}"
      s.st_id s.st_executed s.st_xsends s.st_merges s.st_stalls (json_float s.st_wall)
  in
  Printf.fprintf oc "{\"workload\": %S, \"seed\": %d,\n \"spans\": [\n  %s\n ],\n \"shards\": [\n  %s\n ]}\n"
    w.name seed
    (String.concat ",\n  " (List.map span_json spans))
    (String.concat ",\n  " (Array.to_list (Array.map shard_json shards)));
  close_out oc;
  let oc = open_out (base ^ ".metrics.csv") in
  output_string oc metrics_csv;
  close_out oc;
  base

(* --- attribution ----------------------------------------------------------- *)

(* Each layer's share of a run's host time: its microbenchmarked ns/op
   times the run's own count of that operation, over run_s.  The residue
   — protocol handler self time, sync, the fibers, everything without a
   microbenchmark — is unattributed.share. *)
let attribution ~ns ~events ~counts ~run_s =
  let n k = List.assoc k ns in
  (* a test's own time, less the engine events it drained; the
     difference of two noisy timings can dip below 0 *)
  let self k =
    Float.max 0.0
      (n k -. (Option.value ~default:0.0 (List.assoc_opt k events) *. n "engine.event_ns"))
  in
  let c k = match List.find_opt (fun (x, _, _) -> x = k) counts with Some (_, _, v) -> v | None -> 0.0 in
  let diffs = c "mem.diffs" in
  let diff_ns, apply_ns =
    (* the microbenchmarked dirty fraction nearest this run's mean diff *)
    let pct = if diffs = 0.0 then 1.0 else c "mem.diff_words" /. diffs /. 256.0 *. 100.0 in
    let tag = if pct < 3.0 then "1pct" else if pct < 30.0 then "10pct" else "100pct" in
    (n ("mem.diff_ns." ^ tag), n ("mem.apply_ns." ^ tag))
  in
  let api_ns = ((n "api.read_ns" +. n "api.write_ns") /. 2.0) -. n "cache.access_ns" in
  let layers =
    [
      ( "engine",
        (n "engine.event_ns" *. c "engine.events") +. (n "engine.window_ns" *. c "engine.windows") );
      ("svm", n "svm.tlb_fill_ns" *. c "svm.tlb_fills");
      ("api", api_ns *. c "cache.accesses");
      ("cache", n "cache.access_ns" *. c "cache.accesses");
      ("mem", (diff_ns +. apply_ns) *. diffs);
      ("net", self "net.send_ns" *. c "net.lan_msgs");
      ("am", self "am.post_ns" *. c "am.posts");
      ("obs", (n "obs.emit_ns" *. c "obs.trace_events") +. (n "obs.span_ns" *. c "obs.spans"));
    ]
  in
  let shares = List.map (fun (l, ns) -> (l ^ ".share", ns /. 1e9 /. run_s)) layers in
  shares @ [ ("unattributed.share", 1.0 -. List.fold_left (fun a (_, s) -> a +. s) 0.0 shares) ]

(* The simulator's mean relative error against the paper's Table 3
   (cycles), to be quoted beside any sim_cycles gain. *)
let table3_err () =
  let ms = List.filter (fun m -> m.Mgs_harness.Micro.paper > 0) (Mgs_harness.Micro.run_all ()) in
  List.fold_left
    (fun a m ->
      a +. Float.abs ((fi m.Mgs_harness.Micro.measured /. fi m.Mgs_harness.Micro.paper) -. 1.0))
    0.0 ms
  /. fi (List.length ms)

(* --- output --------------------------------------------------------------- *)

let print_table header rows = Mgs_util.Tableprint.print ~header ~rows

let metric_rows ms = List.map (fun (n, u, v) -> [ n; Printf.sprintf "%.6g" v; u ]) ms

let result_line ~correct ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
          ms))

(* The --trace 1 report: per-layer counts and host times from the set,
   the mgs_run-configuration check, the traced run, the layer
   microbenchmarks and the attribution.  Returns the per-layer metrics
   and whether both extra runs repeated the set's simulation. *)
let layer_report w ~seed ~samples ~counts =
  let med f = median (List.map f samples) in
  let first = List.hd samples in
  let run_s = med (fun s -> s.run_s) in
  let host =
    [
      ("engine.ns_per_event", "ns", run_s *. 1e9 /. fi (max 1 first.events));
      ("engine.barrier_s", "s", med (fun s -> s.barrier_s));
      ("gc.minor", "count", med (fun s -> fi s.minor));
      ("gc.major", "count", med (fun s -> fi s.major));
      ("gc.promoted_mb", "MB", med (fun s -> s.promoted_mb));
      ("harness.create_s", "s", med (fun s -> s.create_s));
      ("harness.prepare_s", "s", med (fun s -> s.prepare_s));
      ("harness.verify_s", "s", med (fun s -> s.verify_s));
      ( "serve.schedule_s",
        "s",
        match w.kv with
        | None -> 0.0
        | Some params ->
          let p = params ~seed in
          let t0 = now () in
          ignore (Kv.schedules p ~nprocs:w.nprocs ~cluster:w.cluster);
          now () -. t0 );
    ]
  in
  (* the same configuration built the way mgs_run builds it *)
  let registry_ok =
    match w.cli ~seed with
    | None -> true
    | Some (app, a) ->
      let wl = Mgs_harness.Workload.instantiate ~args:a app in
      let m = Machine.create (config w) in
      let body, _ = wl.Mgs_harness.Sweep.prepare m in
      let r = Machine.run m body in
      let same = r.Report.sim_events = first.events && r.Report.runtime = first.cycles in
      Printf.printf "mgs_run configuration: sim_events=%d sim_cycles=%d (%s)\n"
        r.Report.sim_events r.Report.runtime
        (if same then "identical" else "DIFFERENT");
      same
  in
  let r, spans, metrics_csv, shards, tail = traced_run w ~seed in
  let traced_ok = r.Report.sim_events = first.events && r.Report.runtime = first.cycles in
  if not traced_ok then print_endline "FAILED: the traced run's sim_events/sim_cycles differ";
  let file = write_trace_file w ~seed ~spans ~shards ~metrics_csv in
  print_endline "traced run (host spans; alloc over all domains):";
  print_table
    [ "span"; "start (s)"; "dur (s)"; "alloc (MB)"; "minor"; "major" ]
    (List.map
       (fun s ->
         [
           s.s_name;
           Printf.sprintf "%.4f" s.s_t0;
           Printf.sprintf "%.4f" (s.s_t1 -. s.s_t0);
           Printf.sprintf "%.1f" s.s_alloc_mb;
           string_of_int s.s_minor;
           string_of_int s.s_major;
         ])
       spans);
  if tail <> "" then print_string tail;
  Printf.printf "wrote %s.spans.json and %s.metrics.csv\n" file file;
  let traced =
    [
      ("traced.run_s", "s", span_s spans "bench.run");
      ("traced.overhead", "ratio", (span_s spans "bench.run" /. run_s) -. 1.0);
      ("traced.create_s", "s", span_s spans "bench.create");
      ("traced.prepare_s", "s", span_s spans "bench.prepare");
      ("traced.quiescent_s", "s", span_s spans "bench.quiescent");
      ("traced.verify_s", "s", span_s spans "bench.verify");
      ("traced.tail_s", "s", span_s spans "bench.tail");
    ]
  in
  let ns, events = Layers.run () in
  print_endline "layer microbenchmarks:";
  print_table [ "op"; "ns/op" ] (List.map (fun (n, v) -> [ n; Printf.sprintf "%.1f" v ]) ns);
  let shares = attribution ~ns ~events ~counts ~run_s in
  Printf.printf "attribution of run_s = %.4f s:\n" run_s;
  print_table [ "layer"; "share" ]
    (List.map (fun (n, v) -> [ n; Printf.sprintf "%.2f%%" (v *. 100.0) ]) shares);
  let model = [ ("model.table3_err", "ratio", table3_err ()) ] in
  let all =
    counts @ host @ traced
    @ List.map (fun (n, v) -> (n, "ns", v)) ns
    @ List.map (fun (n, v) -> (n, "ratio", v)) shares
    @ model
    @ [ ("host.nproc", "count", fi (Domain.recommended_domain_count ())) ]
  in
  print_table [ "per-layer"; "value"; "unit" ] (metric_rows all);
  (all, registry_ok && traced_ok)

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n  workloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  Mgs_apps.Workloads.ensure ();
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then usage ();
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := v = "1";
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match List.find_opt (fun w -> w.name = !workload) workloads with Some w -> w | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  Printf.printf "host: nproc=%d ocaml=%s os=%s word=%d\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.os_type Sys.word_size;
  Printf.printf "workload: %s  P=%d C=%d par=%d seed=%d  (%s)\n%!" w.name w.nprocs w.cluster w.par seed
    (cli_line w ~seed);
  let samples, counts = run_set w ~seed ~seconds:!seconds in
  let attempted = List.length samples in
  let errors = List.filter_map (fun s -> s.error) samples in
  let failed = List.length errors in
  let predictions = if counts = [] then [] else prediction_errors w counts in
  List.iteri
    (fun i s ->
      Printf.printf "run %d: run_s=%.4f setup_s=%.5f alloc_mb=%.1f%s\n" (i + 1) s.run_s
        (s.create_s +. s.prepare_s) s.alloc
        (match s.error with None -> "" | Some e -> "  FAILED: " ^ e))
    samples;
  List.iter (fun e -> Printf.printf "FAILED prediction: %s\n" e) predictions;
  let ok = List.filter (fun s -> s.error = None) samples in
  let med f = median (List.map f ok) in
  let first = List.hd samples in
  let setup s = s.create_s +. s.prepare_s in
  let end_to_end =
    [
      ("run_s", "s", med (fun s -> s.run_s));
      ("setup_s", "s", med setup);
      ("alloc_mb", "MB", med (fun s -> s.alloc));
      ("sim_cycles", "cycles", fi first.cycles);
    ]
  in
  Printf.printf "runs: %d attempted, %d failed; sim_events=%d sim_cycles=%d (every run identical: %b)\n"
    attempted failed first.events first.cycles (failed = 0);
  print_table [ "end-to-end"; "median"; "unit" ] (metric_rows end_to_end);
  let correct = failed = 0 && predictions = [] in
  let metrics, layers_ok =
    if !trace && ok <> [] then (
      try layer_report w ~seed ~samples:ok ~counts
      with e ->
        Printf.printf "FAILED: %s\n" (Printexc.to_string e);
        (end_to_end, false))
    else (end_to_end, true)
  in
  let correct = correct && layers_ok in
  result_line ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
