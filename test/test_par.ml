(* The windowed engine's determinism contract: for any job count, a
   run is byte-identical to the single-domain oracle on every report
   field that describes the simulated machine (wall-clock and the
   engine-sensitive peak-queue figure are explicitly excluded).

   Three layers of evidence:
   - full machines: every protocol x app x faults cell, par=0 vs par=1
     (the same single-domain engine) vs par=2 vs par=4;
   - observability: the span/trace dump of an instrumented run matches
     (the trace is per-shard-celled and merged at export, so par >= 2
     really runs multi-domain; test_obs_par covers the full export
     matrix);
   - raw engine: randomized micro-DAGs over a bare simulator, roots
     seeded in arbitrary shard order, with delays chosen to pile events
     onto lookahead-window boundaries, compared per-shard between job
     counts (test_engine compares the same shape against a naive
     reference scheduler). *)

module Sim = Mgs_engine.Sim
module Shard = Mgs_engine.Shard

(* --- report identity ------------------------------------------------- *)

(* Everything in a report except wall_seconds and peak_queue. *)
let ident (r : Mgs.Report.t) =
  let b = r.Mgs.Report.breakdown in
  let c = r.Mgs.Report.cache in
  Format.asprintf
    "out=%a rt=%d ev=%d | user=%.3f lock=%.3f barrier=%.3f mgs=%.3f | lan=%d/%d | \
     sync=%d/%d/%d | cache=%d,%d,%d,%d,%d,%d | tags=%s | procs=%s | %a"
    Mgs.Report.pp_outcome r.Mgs.Report.outcome r.Mgs.Report.runtime r.Mgs.Report.sim_events
    b.Mgs.Report.user b.Mgs.Report.lock b.Mgs.Report.barrier b.Mgs.Report.mgs
    r.Mgs.Report.lan_messages r.Mgs.Report.lan_words r.Mgs.Report.lock_acquires
    r.Mgs.Report.lock_hits r.Mgs.Report.barrier_episodes c.Mgs_cache.Coherence.hits
    c.Mgs_cache.Coherence.local_misses c.Mgs_cache.Coherence.remote_misses
    c.Mgs_cache.Coherence.misses_2party c.Mgs_cache.Coherence.misses_3party
    c.Mgs_cache.Coherence.software_extensions
    (String.concat ","
       (List.map
          (fun (t, n) -> Printf.sprintf "%s:%d" t n)
          r.Mgs.Report.messages_by_tag))
    (String.concat ","
       (List.map string_of_int (Array.to_list r.Mgs.Report.per_proc_total)))
    Mgs.Pstats.pp r.Mgs.Report.pstats

let apps =
  [
    ("jacobi", Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny);
    ("water", Mgs_apps.Water.workload Mgs_apps.Water.tiny);
    ("tsp", Mgs_apps.Tsp.workload Mgs_apps.Tsp.tiny);
  ]

let protocols = [ "mgs"; "hlrc"; "ivy" ]

(* The full protocol x app x faults matrix at P=8, C=2 (4 shards).
   [check] is off so par >= 2 really runs multi-domain; app verifiers
   and assert_quiescent still run on completed runs. *)
let test_machine_equivalence () =
  List.iter
    (fun protocol ->
      List.iter
        (fun (aname, w) ->
          List.iter
            (fun (fname, faults) ->
              let run par =
                ident
                  (Mgs_harness.Sweep.run_point ~check:false ?faults ~protocol ~par
                     ~nprocs:8 ~cluster:2 w)
                    .Mgs_harness.Sweep.report
              in
              let label p =
                Printf.sprintf "%s/%s/%s: par=%d matches par=0" protocol aname fname p
              in
              let oracle = run 0 in
              List.iter
                (fun par -> Alcotest.(check string) (label par) oracle (run par))
                [ 1; 2; 4 ])
            [
              ("clean", None);
              ("faults", Some (Mgs_net.Fault.scale Mgs_net.Fault.default_chaos ~intensity:0.25));
            ])
        apps)
    protocols

(* A second shape: more SSMPs than the default test shape, uneven
   occupancy (P=16, C=4 -> 4 shards), full job ladder. *)
let test_job_ladder () =
  let w = Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny in
  let run par =
    ident
      (Mgs_harness.Sweep.run_point ~check:false ~par ~nprocs:16 ~cluster:4 w)
        .Mgs_harness.Sweep.report
  in
  let oracle = run 0 in
  List.iter
    (fun par ->
      Alcotest.(check string)
        (Printf.sprintf "P=16 C=4 par=%d" par)
        oracle (run par))
    [ 1; 2; 3; 4; 8 ]

(* --- observability parity -------------------------------------------- *)

(* The trace keeps one cell per shard and merges at export, so the
   engine stays on par_jobs domains; the merged event dump must be
   byte-identical to the single-domain engine's. *)
let trace_dump par =
  let w = Mgs_apps.Jacobi.workload Mgs_apps.Jacobi.tiny in
  let cfg = Mgs.Machine.config ~lan_latency:1000 ~par_jobs:par ~nprocs:8 ~cluster:2 () in
  let m = Mgs.Machine.create cfg in
  let tr = Mgs.Machine.enable_trace m in
  let body, check = w.Mgs_harness.Sweep.prepare m in
  let report = Mgs.Machine.run m body in
  Mgs.Machine.assert_quiescent m;
  check m;
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Mgs_obs.Event.t) ->
      Buffer.add_string buf (Format.asprintf "%a\n" Mgs_obs.Event.pp e))
    (Mgs_obs.Trace.events tr);
  (ident report, Buffer.contents buf)

let test_trace_parity () =
  let i0, d0 = trace_dump 0 in
  let i1, d1 = trace_dump 1 in
  Alcotest.(check string) "report" i0 i1;
  Alcotest.(check string) "event dump" d0 d1;
  let i4, d4 = trace_dump 4 in
  Alcotest.(check string) "report (par=4, multi-domain)" i0 i4;
  Alcotest.(check string) "event dump (par=4)" d0 d4

(* --- raw-engine micro-DAGs ------------------------------------------- *)

(* A random forest of events over a bare simulator.  Delays are
   drawn from the lookahead-window boundary neighborhood so same-time
   ties and window-edge merges happen constantly; cross-shard hops pay
   at least the lookahead, as the LAN does. *)

type node = { hop : int; (* 0 = stay; k > 0 = (shard + k) mod n *) pad : int; kids : node list }

let la = 100

let gen_node : node QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (int_bound 4) @@ fix (fun self n ->
      let* hop = frequency [ (3, pure 0); (2, int_range 1 3) ] in
      let* pad = oneofl [ 0; 1; la - 1; la; la + 1; (2 * la) - 1; 2 * la ] in
      let* kids = if n = 0 then pure [] else list_size (int_bound 3) (self (n - 1)) in
      pure { hop; pad; kids })

let gen_plan : (int * int * node) list QCheck2.Gen.t =
  let open QCheck2.Gen in
  list_size (int_range 1 12)
    (let* shard = int_bound 3 in
     let* t = oneofl [ 0; 1; la - 1; la; (2 * la) + 1; 5 * la ] in
     let* n = gen_node in
     pure (shard, t, n))

(* Execute a plan; returns per-shard execution logs and the stats. *)
let run_plan ~jobs plan =
  let nshards = 4 in
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards ~lookahead:la;
  Sim.set_jobs sim jobs;
  let logs = Array.make nshards [] in
  (* each shard appends only to its own log cell *)
  let rec exec id ~shard node () =
    logs.(shard) <- (id, Sim.now sim) :: logs.(shard);
    List.iteri
      (fun i kid ->
        let dst = (shard + kid.hop) mod nshards in
        let d = if kid.hop = 0 then kid.pad else la + kid.pad in
        Sim.at_shard sim ~shard:dst
          (Sim.now sim + d)
          (exec ((id * 8) + i + 1) ~shard:dst kid))
      node.kids
  in
  List.iteri
    (fun i (shard, t, n) -> Sim.at_shard sim ~shard t (exec (i * 1000) ~shard n))
    plan;
  ignore (Sim.run sim ());
  let st = Sim.stats sim in
  (Array.map List.rev logs, st.Sim.s_executed, st.Sim.s_clamped)

let prop_dag_equivalence =
  QCheck2.Test.make ~name:"micro-DAG: per-shard schedules identical for any job count"
    ~count:120 gen_plan (fun plan ->
      let l1, n1, c1 = run_plan ~jobs:1 plan in
      List.for_all
        (fun jobs ->
          let lj, nj, cj = run_plan ~jobs plan in
          lj = l1 && nj = n1 && cj = c1)
        [ 2; 4 ])

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_dag_equivalence ]

let () =
  Alcotest.run "par"
    [
      ( "equivalence",
        [
          Alcotest.test_case "protocol x app x faults matrix" `Quick
            test_machine_equivalence;
          Alcotest.test_case "job ladder at P=16 C=4" `Quick test_job_ladder;
          Alcotest.test_case "trace parity" `Quick test_trace_parity;
        ] );
      ("micro-dag", qsuite);
    ]
