(* Tests for the event-driven online reconfiguration runtime and the
   Reconfig fail/recover scenario-delta API.

   The load-bearing property (the ISSUE's acceptance bar): for randomized
   delivery schedules — including duplicated, reordered, and
   dropped-then-retried notifications — every router's terminal state is
   bit-identical to the batch application of the final failed set and to
   the dense-matrix reference fold of it; and with a real (LP-computed) plan
   whose MLU* <= 1, the quiescent MLU stays within the plan bound. *)

module G = R3_net.Graph
module Routing = R3_net.Routing
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Spf = R3_net.Spf
module Reconfig = R3_core.Reconfig
module Scenario = R3_core.Scenario
module Online = R3_sim.Online
module Fib = R3_mplsff.Fib

(* Synthetic protection (one SPF detour per link, no LP) — same shape as
   the bench fixtures; isolates the engine from the offline phase. *)
let synthetic_protection g =
  let weights = R3_net.Ospf.unit_weights g in
  let m = G.num_links g in
  let p = Routing.create g ~pairs:(Array.init m (fun e -> (G.src g e, G.dst g e))) in
  for l = 0 to m - 1 do
    let failed = G.fail_links g [ l ] in
    match
      Spf.shortest_path g ~failed ~weights ~src:(G.src g l) ~dst:(G.dst g l) ()
    with
    | Some path -> List.iter (fun e -> Routing.set p l e 1.0) path
    | None -> Routing.set p l l 1.0
  done;
  p

let make_state ?(seed = 11) g =
  let rng = R3_util.Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, demands = Traffic.commodities tm in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  let protection = synthetic_protection g in
  Reconfig.make g ~pairs ~demands ~base ~protection

let gen20 () =
  Topology.random ~seed:20 ~nodes:20 ~undirected_links:45
    ~capacities:[ (10.0, 0.5); (40.0, 0.5) ]
    ()

let sc g reps = Scenario.of_physical g reps

let bit_identical = Reconfig.states_bit_identical

(* ---- fail / recover (scenario-delta API) ---- *)

let test_fail_matches_directed_folds () =
  let g = Topology.abilene () in
  let st = make_state g in
  let e = 3 in
  let one = Reconfig.fail st (sc g [ e ]) in
  let r = Option.get (G.reverse_link g e) in
  Alcotest.(check bool) "fail = apply_failures over both directions" true
    (bit_identical one (Reconfig.apply_failures st [ e; r ]));
  Alcotest.(check bool) "apply_failures one at a time = fail" true
    (bit_identical one
       (Reconfig.apply_failures (Reconfig.apply_failures st [ e ]) [ r ]))

let test_fail_idempotent () =
  let g = Topology.abilene () in
  let st = make_state g in
  let once = Reconfig.fail st (sc g [ 0; 5 ]) in
  let twice = Reconfig.fail once (sc g [ 0; 5 ]) in
  Alcotest.(check bool) "re-failing is a no-op" true (bit_identical once twice)

let test_recover_restores_pristine () =
  let g = Topology.abilene () in
  let st = make_state g in
  let failed = Reconfig.fail st (sc g [ 2; 7 ]) in
  let back = Reconfig.recover failed (sc g [ 2; 7 ]) in
  Alcotest.(check bool) "recover all = pristine bits" true (bit_identical st back)

let test_recover_replays_remaining () =
  let g = Topology.abilene () in
  let st = make_state g in
  let failed = Reconfig.fail st (sc g [ 2; 7; 11 ]) in
  let partial = Reconfig.recover failed (sc g [ 7 ]) in
  Alcotest.(check bool) "recover subset = batch of remaining" true
    (bit_identical partial (Reconfig.fail st (sc g [ 2; 11 ])));
  (* recovering a link that is up is a no-op *)
  let noop = Reconfig.recover failed (sc g [ 4 ]) in
  Alcotest.(check bool) "recover of up link is no-op" true
    (bit_identical noop failed)

let test_fail_order_canonical () =
  (* Whatever order deltas arrive in, equal failed sets have equal bits —
     the property the online engine's memoization rests on. *)
  let g = gen20 () in
  let st = make_state g in
  let a = Reconfig.fail (Reconfig.fail st (sc g [ 9 ])) (sc g [ 1 ]) in
  let b = Reconfig.fail (Reconfig.fail st (sc g [ 1 ])) (sc g [ 9 ]) in
  let c = Reconfig.fail st (sc g [ 9; 1 ]) in
  Alcotest.(check bool) "fail commutes to canonical bits (a=c)" true
    (bit_identical a c);
  Alcotest.(check bool) "fail commutes to canonical bits (b=c)" true
    (bit_identical b c)

(* ---- schedule generator ---- *)

let test_generate_deterministic () =
  let g = Topology.abilene () in
  let s1 = Online.generate g ~seed:5 ~events:30 ~max_concurrent:3 () in
  let s2 = Online.generate g ~seed:5 ~events:30 ~max_concurrent:3 () in
  Alcotest.(check bool) "equal seeds, equal schedules" true (s1 = s2);
  let s3 = Online.generate g ~seed:6 ~events:30 ~max_concurrent:3 () in
  Alcotest.(check bool) "different seed, different schedule" true (s1 <> s3);
  (* replay: concurrency cap respected, no double-fail / spurious recover *)
  let down = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      (match ev.Online.kind with
      | Online.Fail ->
        Alcotest.(check bool) "fail of up link" false
          (Hashtbl.mem down ev.Online.link);
        Hashtbl.replace down ev.Online.link ()
      | Online.Recover ->
        Alcotest.(check bool) "recover of down link" true
          (Hashtbl.mem down ev.Online.link);
        Hashtbl.remove down ev.Online.link);
      Alcotest.(check bool) "concurrency cap" true (Hashtbl.length down <= 3))
    s1

(* ---- the online engine ---- *)

let faulty = Online.Channel.faulty Online.Channel.default_faults

let test_ideal_channel_delivers_once () =
  let g = Topology.abilene () in
  let root = make_state g in
  let schedule = Online.generate g ~seed:1 ~events:15 () in
  let o = Online.run ~seed:1 root schedule in
  let s = o.Online.stats in
  Alcotest.(check int) "one copy per (event, router)"
    (s.Online.events * G.num_nodes g)
    s.Online.deliveries;
  Alcotest.(check int) "ideal channel drops nothing" 0 s.Online.drops;
  Alcotest.(check bool) "order independent" true o.Online.order_independent;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "every event converged" false (Float.is_nan c);
      (* detection alone takes 30 ms, so convergence can't beat it *)
      Alcotest.(check bool) "convergence >= detection latency" true (c >= 30.0))
    s.Online.convergence_ms

(* The acceptance-bar property: >= 100 seeded random schedules across
   Abilene and a generated topology, fault-injected channel (duplicates,
   reordering, drops with retry), terminal state bit-identical to batch. *)
let test_order_independence_property () =
  List.iter
    (fun g ->
      let root = make_state g in
      for seed = 0 to 59 do
        let schedule =
          Online.generate g ~seed ~events:12 ~max_concurrent:3 ()
        in
        let o = Online.run ~channel:faulty ~seed root schedule in
        if not o.Online.order_independent then
          Alcotest.failf "seed %d: terminal state diverged from batch" seed
      done)
    [ Topology.abilene (); gen20 () ]

(* The sparse row storage against the dense-matrix reference: every
   terminal state must hold the bits of the reference's canonical-order
   fold of the final failed set. *)
let test_terminal_matches_reference () =
  let g = gen20 () in
  let root = make_state g in
  let pristine = R3_check.Fold_ref.of_state root in
  for seed = 0 to 9 do
    let schedule = Online.generate g ~seed ~events:10 ~max_concurrent:3 () in
    let o = Online.run ~channel:faulty ~seed root schedule in
    Alcotest.(check bool) "order independent" true o.Online.order_independent;
    let down =
      List.filter (fun e -> o.Online.terminal.Reconfig.failed.(e))
        (List.init (G.num_links g) Fun.id)
    in
    (* Scenario order is the canonical fold order. *)
    let reference =
      R3_check.Fold_ref.fail pristine (Scenario.links (Scenario.of_links g down))
    in
    match R3_check.Fold_ref.mismatch reference o.Online.terminal with
    | None -> ()
    | Some d -> Alcotest.failf "seed %d: terminal vs dense reference: %s" seed d
  done

let test_fib_maintenance () =
  let g = Topology.abilene () in
  let root = make_state g in
  for seed = 0 to 4 do
    let schedule = Online.generate g ~seed ~events:10 ~max_concurrent:2 () in
    let o = Online.run ~channel:faulty ~seed ~fibs:true root schedule in
    Alcotest.(check bool) "per-router FIB updates land on full rebuild" true
      o.Online.fib_consistent
  done;
  (* and directly: update_router order does not matter *)
  let st = Reconfig.fail root (sc g [ 4; 9 ]) in
  let full = Fib.of_protection g st.Reconfig.protection in
  let n = G.num_nodes g in
  let forward = ref (Fib.of_protection g root.Reconfig.protection) in
  for v = 0 to n - 1 do
    forward := Fib.update_router !forward ~router:v st.Reconfig.protection
  done;
  let backward = ref (Fib.of_protection g root.Reconfig.protection) in
  for v = n - 1 downto 0 do
    backward := Fib.update_router !backward ~router:v st.Reconfig.protection
  done;
  Alcotest.(check bool) "ascending order = rebuild" true (Fib.equal !forward full);
  Alcotest.(check bool) "descending order = rebuild" true (Fib.equal !backward full)

(* With an LP-computed plan whose MLU* <= 1, the quiescent MLU after any
   generated schedule (within the f=1 physical budget) obeys Theorem 2.
   f=1 because Abilene has degree-2 PoPs: a 2-physical-failure envelope
   contains disconnecting scenarios, whose virtual demand pushes MLU*
   above 1 at any load. *)
let test_quiescent_mlu_bound () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 3 in
  let tm = Traffic.gravity rng g ~load_factor:0.08 () in
  let pairs, _ = Traffic.commodities tm in
  let base =
    R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs ()
  in
  let f = 1 in
  let cfg =
    {
      (R3_core.Offline.default_config ~f) with
      R3_core.Offline.solve_method = R3_core.Offline.Constraint_gen;
    }
  in
  let srlgs =
    Array.to_list (R3_sim.Scenarios.physical_links g)
    |> List.map (fun e ->
           match G.reverse_link g e with Some r -> [ e; r ] | None -> [ e ])
  in
  match
    R3_core.Structured.compute cfg g tm
      { R3_core.Structured.srlgs; mlgs = []; k = f }
      (R3_core.Offline.Fixed base)
  with
  | Error m -> Alcotest.failf "precompute failed: %s" m
  | Ok plan ->
    Alcotest.(check bool) "fixture plan is congestion-free" true
      (plan.R3_core.Offline.mlu <= 1.0);
    let root = Reconfig.of_plan plan in
    for seed = 0 to 4 do
      let schedule = Online.generate g ~seed ~events:8 ~max_concurrent:f () in
      let o =
        Online.run ~channel:faulty ~seed ~mlu_bound:plan.R3_core.Offline.mlu
          root schedule
      in
      Alcotest.(check bool) "order independent" true o.Online.order_independent;
      if o.Online.quiescent_mlu > 1.0 +. 1e-9 then
        Alcotest.failf "seed %d: quiescent MLU %.6f breaks the plan bound" seed
          o.Online.quiescent_mlu
    done

let test_stats_and_metrics () =
  let g = Topology.abilene () in
  let root = make_state g in
  let schedule = Online.generate g ~seed:2 ~events:20 ~max_concurrent:3 () in
  let o = Online.run ~channel:faulty ~seed:2 root schedule in
  let s = o.Online.stats in
  Alcotest.(check bool) "duplicates were delivered" true
    (s.Online.deliveries > s.Online.events * G.num_nodes g);
  Alcotest.(check bool) "stale copies ignored" true (s.Online.stale > 0);
  Alcotest.(check bool) "drops were retried" true
    (s.Online.drops > 0 && s.Online.retries = s.Online.drops);
  Alcotest.(check bool) "states are shared across routers" true
    (s.Online.distinct_states < s.Online.deliveries);
  Alcotest.(check bool) "transient peak >= quiescent" true
    (s.Online.transient_mlu_peak >= o.Online.quiescent_mlu -. 1e-12);
  let module M = R3_util.Metrics in
  Alcotest.(check bool) "r3.online.events counted" true
    (M.counter_value "r3.online.events" > 0);
  Alcotest.(check bool) "r3.online.deliveries counted" true
    (M.counter_value "r3.online.deliveries" > 0)


(* ---- golden outcome digest ---- *)

(* Every observable of one full faulty-channel run with FIB maintenance,
   serialized as raw IEEE-754 bits and hashed: the terminal routings, the
   data-plane trajectory summary (peak, minimum delivered, violation
   windows), per-event convergence, all counts and both checks. The
   pinned value was computed before the per-state memoization of derived
   values was introduced; any change to what a run computes — not merely
   how fast — moves it. *)
let outcome_digest (o : Online.outcome) =
  let module W = R3_util.Codec.W in
  let w = W.create () in
  let matrix r =
    let d = Routing.to_dense_matrix r in
    W.i32 w (Array.length d);
    Array.iter (W.float_array w) d
  in
  let t = o.Online.terminal in
  Array.iter (W.bool w) t.Reconfig.failed;
  matrix t.Reconfig.base;
  matrix t.Reconfig.protection;
  W.float w o.Online.quiescent_mlu;
  let s = o.Online.stats in
  W.float w s.Online.transient_mlu_peak;
  W.float w s.Online.min_delivered;
  W.i32 w (List.length s.Online.violation_windows);
  List.iter
    (fun (a, b) ->
      W.float w a;
      W.float w b)
    s.Online.violation_windows;
  W.float_array w s.Online.convergence_ms;
  List.iter (W.int w)
    [
      s.Online.events;
      s.Online.deliveries;
      s.Online.stale;
      s.Online.drops;
      s.Online.retries;
      s.Online.distinct_states;
    ];
  W.bool w o.Online.fib_consistent;
  W.bool w o.Online.order_independent;
  Digest.to_hex (Digest.string (W.contents w))

let golden_digest = "cd775473aa70008d4963fcf51cdf86e4"

let golden_run () =
  let g = gen20 () in
  let root = make_state g in
  let schedule = Online.generate g ~seed:41 ~events:80 ~max_concurrent:3 () in
  let mlu_bound = 1.02 *. Reconfig.mlu root in
  Online.run ~channel:faulty ~seed:41 ~mlu_bound ~fibs:true root schedule

(* The golden run, paused or resumed. *)
let golden_run_to ?stop_after ?resume () =
  let g = gen20 () in
  let root = make_state g in
  let schedule = Online.generate g ~seed:41 ~events:80 ~max_concurrent:3 () in
  let mlu_bound = 1.02 *. Reconfig.mlu root in
  Online.run_to ~channel:faulty ~seed:41 ~mlu_bound ~fibs:true ?stop_after
    ?resume root schedule

(* A resumed run rebuilds its views and data-plane state through the memo
   (whose size therefore differs), but every other observable must match
   the uninterrupted run bit for bit — at any cut point, through a
   save/load round trip of the checkpoint. *)
let test_resume_matches_full () =
  let sans_states (o : Online.outcome) =
    outcome_digest
      { o with Online.stats = { o.Online.stats with Online.distinct_states = 0 } }
  in
  let full = golden_run () in
  let nd = full.Online.stats.Online.deliveries in
  let path = Filename.temp_file "r3_online" ".ck" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun cut ->
          match golden_run_to ~stop_after:cut () with
          | `Done _ -> Alcotest.failf "cut %d did not pause" cut
          | `Paused ck -> (
            Online.Checkpoint.save path ck;
            let ck = Result.get_ok (Online.Checkpoint.load path) in
            match golden_run_to ~resume:ck () with
            | `Paused _ -> Alcotest.failf "cut %d: resume paused again" cut
            | `Done o ->
              Alcotest.(check string)
                (Printf.sprintf "cut %d: resumed = uninterrupted" cut)
                (sans_states full) (sans_states o)))
        [ 1; nd / 3; nd / 2; nd - 1 ])

let test_golden_digest () =
  let o = golden_run () in
  let s = o.Online.stats in
  (* The fixture must exercise what the digest pins. *)
  Alcotest.(check bool) "states repeat across deliveries" true
    (s.Online.distinct_states * 10 < s.Online.deliveries);
  Alcotest.(check bool) "violation windows recorded" true
    (s.Online.violation_windows <> []);
  Alcotest.(check bool) "checks hold" true
    (o.Online.order_independent && o.Online.fib_consistent);
  Alcotest.(check string) "outcome digest" golden_digest (outcome_digest o)

let suite =
  [
    Alcotest.test_case "fail matches directed folds" `Quick
      test_fail_matches_directed_folds;
    Alcotest.test_case "fail is idempotent" `Quick test_fail_idempotent;
    Alcotest.test_case "recover restores pristine bits" `Quick
      test_recover_restores_pristine;
    Alcotest.test_case "recover replays remaining failures" `Quick
      test_recover_replays_remaining;
    Alcotest.test_case "fail folds to canonical bits" `Quick
      test_fail_order_canonical;
    Alcotest.test_case "generate: deterministic, capped, consistent" `Quick
      test_generate_deterministic;
    Alcotest.test_case "ideal channel: one delivery per router" `Quick
      test_ideal_channel_delivers_once;
    Alcotest.test_case "order independence over 120 faulty schedules" `Slow
      test_order_independence_property;
    Alcotest.test_case "terminal states equal across storage backends" `Quick
      test_terminal_matches_reference;
    Alcotest.test_case "per-router FIB maintenance" `Quick test_fib_maintenance;
    Alcotest.test_case "quiescent MLU within plan bound (Theorem 2)" `Slow
      test_quiescent_mlu_bound;
    Alcotest.test_case "fault stats and r3.online.* metrics" `Quick
      test_stats_and_metrics;
    Alcotest.test_case "golden outcome digest" `Quick test_golden_digest;
    Alcotest.test_case "resumed run = uninterrupted run" `Quick
      test_resume_matches_full;
  ]
