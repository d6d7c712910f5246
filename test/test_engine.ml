(* Tests for the discrete-event core: event ordering, clamping, the
   engine against an independent reference scheduler, fibers, and wait
   queues. *)

module Sim = Mgs_engine.Sim
module Shard = Mgs_engine.Shard
module Fiber = Mgs_engine.Fiber
module Waitq = Mgs_engine.Waitq

let test_event_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 30 (fun () -> log := 30 :: !log);
  Sim.at sim 10 (fun () -> log := 10 :: !log);
  Sim.at sim 20 (fun () -> log := 20 :: !log);
  let n = Sim.run sim () in
  Alcotest.(check int) "events" 3 n;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Sim.now sim)

let test_tie_break_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Sim.at sim 7 (fun () -> log := i :: !log)
  done;
  ignore (Sim.run sim ());
  Alcotest.(check (list int)) "same-time events run in schedule order" [ 0; 1; 2; 3; 4 ]
    (List.rev !log)

let test_past_clamped () =
  let sim = Sim.create () in
  let fired_at = ref (-1) in
  Sim.at sim 100 (fun () -> Sim.at sim 50 (fun () -> fired_at := Sim.now sim));
  ignore (Sim.run sim ());
  Alcotest.(check int) "past schedule runs now" 100 !fired_at

let test_after_negative () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.after: negative delay")
    (fun () -> Sim.after sim (-1) (fun () -> ()))

let test_event_limit () =
  let sim = Sim.create () in
  let rec forever () = Sim.after sim 1 forever in
  forever ();
  (* the failure must carry the diagnosis: limit, progress, clock, and
     queue depth (a bare "livelock?" gave nothing to debug with) *)
  Alcotest.check_raises "limit trips"
    (Failure
       "Sim.run: event limit exhausted (livelock?): limit=100 executed=100 clock=100 \
        pending=1") (fun () -> ignore (Sim.run sim ~limit:100 ()))

let test_clamp_counted () =
  let sim = Sim.create () in
  Sim.at sim 100 (fun () ->
      Sim.at sim 50 (fun () -> ());
      Sim.at sim 60 (fun () -> ());
      Sim.at sim 200 (fun () -> ()));
  ignore (Sim.run sim ());
  let st = Sim.stats sim in
  Alcotest.(check int) "two past-due schedules counted" 2 st.Sim.s_clamped;
  Alcotest.(check int) "executed" 4 st.Sim.s_executed

(* A cross-shard message that lands after its destination's clock (a
   lookahead violation by construction: due in 10 cycles where the
   window is 1000 wide) is clamped-and-counted by default... *)
let test_sharded_late_merge_clamped () =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead:1000;
  Sim.set_jobs sim 2;
  (* shard 1 busies itself deep into the first window *)
  Sim.at_shard sim ~shard:1 900 (fun () -> ());
  let landed = ref (-1) in
  Sim.at_shard sim ~shard:0 10 (fun () ->
      Sim.at_shard sim ~shard:1 20 (fun () -> landed := Sim.now sim));
  ignore (Sim.run sim ());
  Alcotest.(check int) "late merge clamped to the destination clock" 900 !landed;
  Alcotest.(check int) "clamp counted" 1 (Sim.stats sim).Sim.s_clamped

(* ...and raises under strict mode, for debugging lookahead bugs. *)
let test_sharded_strict_raises () =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead:1000;
  Sim.set_jobs sim 2;
  Sim.set_strict sim true;
  Sim.at_shard sim ~shard:1 900 (fun () -> ());
  Sim.at_shard sim ~shard:0 10 (fun () ->
      Sim.at_shard sim ~shard:1 20 (fun () -> ()));
  match Sim.run sim () with
  | _ -> Alcotest.fail "expected Late_delivery"
  | exception Mgs_engine.Shard.Late_delivery { dst; fire; clock } ->
    Alcotest.(check int) "dst shard" 1 dst;
    Alcotest.(check int) "fire" 20 fire;
    Alcotest.(check int) "destination clock" 900 clock

(* A finished windowed run must not keep its last event's genealogy
   key reachable: the key holds that event's whole ancestry. *)
let test_run_key_cleared () =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards:2 ~lookahead:1000;
  Sim.set_jobs sim 2;
  let rec chain shard n () =
    if n > 0 then Sim.at_shard sim ~shard (Sim.now sim + 1) (chain shard (n - 1))
  in
  Sim.at_shard sim ~shard:0 0 (chain 0 5);
  Sim.at_shard sim ~shard:1 0 (chain 1 5);
  ignore (Sim.run sim ());
  Alcotest.(check bool) "no key after a windowed run" true
    (Shard.running_key () == Mgs_engine.Shardq.no_parent);
  (* nor after a failed one *)
  let rec forever () = Sim.after sim 1 forever in
  Sim.at_shard sim ~shard:0 (Sim.now sim) forever;
  (match Sim.run sim ~limit:10 () with
  | _ -> Alcotest.fail "expected the event limit to trip"
  | exception Failure _ -> ());
  Alcotest.(check bool) "no key after a failed windowed run" true
    (Shard.running_key () == Mgs_engine.Shardq.no_parent);
  Alcotest.(check int) "the failed run's event is still pending" 1 (Sim.pending sim)

(* --- independent oracle --------------------------------------------- *)

(* A naive reference scheduler sharing no code with the engine: a list
   kept sorted on (fire, insertion seq), with past-due times clamped to
   the clock and counted. *)
module Naive = struct
  type t = {
    mutable evs : (int * int * (unit -> unit)) list;
    mutable clock : int;
    mutable seq : int;
    mutable executed : int;
    mutable clamped : int;
  }

  let create () = { evs = []; clock = 0; seq = 0; executed = 0; clamped = 0 }

  let at o t f =
    let fire =
      if t < o.clock then begin
        o.clamped <- o.clamped + 1;
        o.clock
      end
      else t
    in
    o.seq <- o.seq + 1;
    let seq = o.seq in
    let rec insert = function
      | ((f', s', _) as e) :: rest when f' < fire || (f' = fire && s' < seq) ->
        e :: insert rest
      | rest -> (fire, seq, f) :: rest
    in
    o.evs <- insert o.evs

  let rec run o =
    match o.evs with
    | [] -> ()
    | (t, _, f) :: rest ->
      o.evs <- rest;
      o.clock <- max o.clock t;
      o.executed <- o.executed + 1;
      f ();
      run o
end

(* Random event forests over 4 shards.  Same-shard children may be due
   in the past (clamped); cross-shard children pay at least the
   lookahead, as the LAN does.  Roots are seeded in the plan's own,
   unsorted shard order. *)
type node = { hop : int; (* 0 = stay; k > 0 = (shard + k) mod n *) pad : int; kids : node list }

let la = 100

let nshards = 4

let gen_node : node QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (int_bound 4) @@ fix (fun self n ->
      let* hop = frequency [ (3, pure 0); (2, int_range 1 3) ] in
      let* pad = oneofl [ -la; -1; 0; 0; 1; la - 1; la; la + 1; 2 * la ] in
      let* kids = if n = 0 then pure [] else list_size (int_bound 3) (self (n - 1)) in
      pure { hop; pad; kids })

let gen_plan : (int * int * node) list QCheck2.Gen.t =
  let open QCheck2.Gen in
  list_size (int_range 1 12)
    (let* shard = int_bound (nshards - 1) in
     let* t = oneofl [ 0; 0; 1; la - 1; la; (2 * la) + 1; 5 * la ] in
     let* n = gen_node in
     pure (shard, t, n))

(* Seed [plan] through [at_shard]; returns the per-shard logs of
   (event id, time) the events fill as they run. *)
let seed_forest ~at_shard ~now plan =
  let logs = Array.make nshards [] in
  let rec exec id ~shard node () =
    logs.(shard) <- (id, now ()) :: logs.(shard);
    List.iteri
      (fun i kid ->
        let dst = (shard + kid.hop) mod nshards in
        let d = if kid.hop = 0 then kid.pad else la + abs kid.pad in
        at_shard ~shard:dst (now () + d) (exec ((id * 8) + i + 1) ~shard:dst kid))
      node.kids
  in
  List.iteri (fun i (shard, t, n) -> at_shard ~shard t (exec (i * 1000) ~shard n)) plan;
  logs

let oracle_run plan =
  let o = Naive.create () in
  let logs =
    seed_forest ~at_shard:(fun ~shard:_ t f -> Naive.at o t f) ~now:(fun () -> o.Naive.clock) plan
  in
  Naive.run o;
  (Array.map List.rev logs, o.Naive.executed, o.Naive.clamped)

let engine_run ~jobs plan =
  let sim = Sim.create () in
  Sim.make_sharded sim ~nshards ~lookahead:la;
  Sim.set_jobs sim jobs;
  let logs = seed_forest ~at_shard:(Sim.at_shard sim) ~now:(fun () -> Sim.now sim) plan in
  let n = Sim.run sim () in
  let st = Sim.stats sim in
  assert (n = st.Sim.s_executed);
  (Array.map List.rev logs, st.Sim.s_executed, st.Sim.s_clamped)

let prop_oracle =
  QCheck2.Test.make ~name:"engine matches the naive scheduler at jobs 1, 2, 4" ~count:150
    gen_plan (fun plan ->
      let expect = oracle_run plan in
      List.for_all (fun jobs -> engine_run ~jobs plan = expect) [ 1; 2; 4 ])

let test_fiber_completes () =
  let sim = Sim.create () in
  let steps = ref [] in
  let fb =
    Fiber.spawn sim ~at:0 ~name:"t" (fun () ->
        steps := `A :: !steps;
        Fiber.sleep_until sim 500;
        steps := `B :: !steps)
  in
  ignore (Sim.run sim ());
  Alcotest.(check bool) "completed" true (Fiber.status fb = Fiber.Completed);
  Alcotest.(check int) "slept to 500" 500 (Sim.now sim);
  Alcotest.(check int) "both steps ran" 2 (List.length !steps)

let test_fiber_deadlock_detected () =
  let sim = Sim.create () in
  let fb = Fiber.spawn sim ~at:0 ~name:"stuck" (fun () -> Fiber.suspend (fun _resume -> ())) in
  ignore (Sim.run sim ());
  Alcotest.(check bool) "still running" true (Fiber.status fb = Fiber.Running);
  Alcotest.check_raises "check_all_completed reports it"
    (Failure "fiber \"stuck\" deadlocked (still blocked)") (fun () ->
      Fiber.check_all_completed [ fb ])

exception Boom

let test_fiber_failure_propagates () =
  let sim = Sim.create () in
  let fb = Fiber.spawn sim ~at:0 ~name:"bad" (fun () -> raise Boom) in
  ignore (Sim.run sim ());
  (match Fiber.status fb with
  | Fiber.Failed Boom -> ()
  | _ -> Alcotest.fail "expected Failed Boom");
  Alcotest.check_raises "re-raised" Boom (fun () -> Fiber.check_all_completed [ fb ])

let test_suspend_outside_fiber () =
  Alcotest.check_raises "suspend outside fiber"
    (Failure "Fiber.suspend: called outside a fiber") (fun () ->
      Fiber.suspend (fun _resume -> ()))

let test_waitq_fifo () =
  let sim = Sim.create () in
  let q = Waitq.create () in
  let order = ref [] in
  let spawn name =
    ignore
      (Fiber.spawn sim ~at:0 ~name (fun () ->
           Waitq.park q;
           order := name :: !order))
  in
  spawn "first";
  spawn "second";
  spawn "third";
  Sim.at sim 10 (fun () -> ignore (Waitq.wake_one sim q));
  Sim.at sim 20 (fun () -> ignore (Waitq.wake_all sim q));
  ignore (Sim.run sim ());
  Alcotest.(check (list string)) "FIFO wake order" [ "first"; "second"; "third" ]
    (List.rev !order)

let test_waitq_counts () =
  let sim = Sim.create () in
  let q = Waitq.create () in
  Alcotest.(check bool) "empty wake_one" false (Waitq.wake_one sim q);
  Waitq.park_thunk q (fun () -> ());
  Waitq.park_thunk q (fun () -> ());
  Alcotest.(check int) "length" 2 (Waitq.length q);
  Alcotest.(check int) "wake_all count" 2 (Waitq.wake_all sim q);
  Alcotest.(check bool) "now empty" true (Waitq.is_empty q)

(* Fibers interleave deterministically with plain events. *)
let test_fiber_event_interleaving () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Fiber.spawn sim ~at:5 ~name:"f" (fun () ->
         log := "f@5" :: !log;
         Fiber.sleep_until sim 15;
         log := "f@15" :: !log));
  Sim.at sim 10 (fun () -> log := "e@10" :: !log);
  ignore (Sim.run sim ());
  Alcotest.(check (list string)) "interleaving" [ "f@5"; "e@10"; "f@15" ] (List.rev !log)

(* Property: the simulator clock never goes backwards, whatever the
   schedule (including events scheduling into the past). *)
let prop_clock_monotone =
  QCheck2.Test.make ~name:"Sim.now is monotone" ~count:200
    QCheck2.Gen.(list (pair (int_bound 1000) (int_bound 500)))
    (fun plan ->
      let sim = Sim.create () in
      let last = ref (-1) in
      let ok = ref true in
      List.iter
        (fun (t, dt) ->
          Sim.at sim t (fun () ->
              if Sim.now sim < !last then ok := false;
              last := Sim.now sim;
              (* events may schedule both forward and "backward" *)
              Sim.at sim (Sim.now sim - dt) (fun () ->
                  if Sim.now sim < !last then ok := false;
                  last := Sim.now sim)))
        plan;
      ignore (Sim.run sim ());
      !ok)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_clock_monotone; prop_oracle ]

let () =
  Alcotest.run "engine"
    [
      ( "sim",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "tie-break fifo" `Quick test_tie_break_fifo;
          Alcotest.test_case "past clamped to now" `Quick test_past_clamped;
          Alcotest.test_case "negative delay rejected" `Quick test_after_negative;
          Alcotest.test_case "event limit" `Quick test_event_limit;
          Alcotest.test_case "clamps counted" `Quick test_clamp_counted;
          Alcotest.test_case "late cross-shard merge clamped" `Quick
            test_sharded_late_merge_clamped;
          Alcotest.test_case "strict mode raises on late merge" `Quick
            test_sharded_strict_raises;
          Alcotest.test_case "run key cleared after a windowed run" `Quick
            test_run_key_cleared;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "runs to completion" `Quick test_fiber_completes;
          Alcotest.test_case "deadlock detected" `Quick test_fiber_deadlock_detected;
          Alcotest.test_case "failure propagates" `Quick test_fiber_failure_propagates;
          Alcotest.test_case "suspend outside fiber" `Quick test_suspend_outside_fiber;
          Alcotest.test_case "interleaves with events" `Quick test_fiber_event_interleaving;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "fifo" `Quick test_waitq_fifo;
          Alcotest.test_case "counts" `Quick test_waitq_counts;
        ] );
      ("properties", qsuite);
    ]
