(* Repository benchmark for the R3 reproduction.

   Drives the library's public entry points from outside, the way the
   `r3` CLI does, and times each call itself:

     precompute-uunet  Offline.compute (F=1, constraint generation,
                       revised LP) on uunet, then Plan_store.save/load —
                       the paper's offline phase.
     sweep-abilene     Sweep.run over all k=1,2 and 300 sampled k=3
                       physical failures, six algorithms, ratio metric,
                       fresh in-memory MCF cache — the evaluation engine.
     online-pop36      Online.run over a 2000-event fail/recover schedule
                       on a faulty channel with FIBs maintained — the
                       paper's online phase.

   Every workload also replays fail/recover events through
   Reconfig.fail/recover from the current state on its own plan: the
   router's failure-reaction cost.

   Each run is one process and a closed loop: one caller issues each call
   after the previous one returns, on a pool of at most two domains that
   is started before timing. Set-up builds [variants] input variants from
   the seed (topology, traffic matrix, OSPF base, the plans the sweep and
   online workloads need, schedules) and is repeated for a median; it
   never reads or writes a plan or MCF cache, so every run starts cold.
   Units of work then cycle through the variants until the requested
   seconds have passed, each followed by its output checks (untimed).

   End-to-end metrics, the same four on every workload:
     setup_s          median set-up time
     stage_s          median wall time of the headline call(s) above;
                      also printed as precompute_s, sweep_scenarios_per_s
                      or online_events_per_s
     reaction_p50_us  median Reconfig.fail time over all replayed failures
     peak_heap_mb     peak major heap of the process

   With --trace 0, Metrics and Trace are off. With --trace 1 the first
   half of the time runs untraced units and the second half runs them with
   both on; the per-layer metrics (counter deltas, span
   totals and self times, worker busy time, GC words, tracing overhead)
   are printed instead.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Ospf = R3_net.Ospf
module Routing = R3_net.Routing
module Offline = R3_core.Offline
module Structured = R3_core.Structured
module Plan_store = R3_core.Plan_store
module Reconfig = R3_core.Reconfig
module Scenario = R3_core.Scenario
module Verify = R3_core.Verify
module Eval = R3_sim.Eval
module Sweep = R3_sim.Sweep
module Scenarios = R3_sim.Scenarios
module Online = R3_sim.Online
module Fib = R3_mplsff.Fib
module Pool = R3_util.Pool
module Metrics = R3_util.Metrics
module Trace = R3_util.Trace
module Json = R3_util.Json
module Prng = R3_util.Prng

(* Monotonic nanosecond clock: failure reactions on small topologies take
   a few microseconds, below the resolution of gettimeofday. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile over a non-empty sample. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

(* ---------- output checks ---------- *)

let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" name
  end

(* Deterministic counts must repeat exactly from one unit of an input
   variant to the next within a run: a count that varies is a benchmark
   failure. *)
let repeat_table : (string * int, float) Hashtbl.t = Hashtbl.create 64

let check_repeats ~variant counts =
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt repeat_table (name, variant) with
      | None -> Hashtbl.add repeat_table (name, variant) v
      | Some v0 ->
        check
          (Printf.sprintf "count %s repeats (%.17g vs %.17g)" name v v0)
          (Int64.bits_of_float v = Int64.bits_of_float v0))
    counts

(* ---------- shared inputs ---------- *)

let pop36 () =
  Topology.random ~seed:36 ~nodes:36 ~undirected_links:80
    ~capacities:[ (10.0, 0.5); (40.0, 0.3); (100.0, 0.2) ]
    ()

let bidir_groups g =
  Array.to_list (Scenarios.physical_links g)
  |> List.map (fun e ->
         match G.reverse_link g e with Some r -> [ e; r ] | None -> [ e ])

let cg_config ~f =
  { (Offline.default_config ~f) with solve_method = Offline.Constraint_gen }

(* Topology, gravity TM (load 0.3, seeded) and unit-weight OSPF base —
   the inputs `r3 precompute/sweep/online` build. The seed never touches
   the topology: LP time swings by orders of magnitude with the graph. *)
type inputs = {
  g : G.t;
  tm : Traffic.t;
  pairs : (G.node * G.node) array;
  demands : float array;
  weights : float array;
  base : Routing.t;
  ospf_s : float;
}

let make_inputs g ~seed =
  let tm = Traffic.gravity (Prng.create seed) g ~load_factor:0.3 () in
  let pairs, demands = Traffic.commodities tm in
  let weights = Ospf.unit_weights g in
  let base, ospf_s = time (fun () -> Ospf.routing g ~weights ~pairs ()) in
  { g; tm; pairs; demands; weights; base; ospf_s }

let structured_plan inp ~k =
  match
    Structured.compute (cg_config ~f:k) inp.g inp.tm
      { Structured.srlgs = bidir_groups inp.g; mlgs = []; k }
      (Offline.Fixed inp.base)
  with
  | Ok p -> p
  | Error msg -> failwith ("set-up plan failed: " ^ msg)

(* ---------- the failure-reaction replay ---------- *)

type replay = {
  fail_us : float list;
  recover_us : float list;
  final : Reconfig.state;
  minor_words : float;  (** main-domain allocation of the replay *)
}

let replay_schedule root schedule =
  let g = root.Reconfig.graph in
  let w0 = Gc.minor_words () in
  let st = ref root and fails = ref [] and recovers = ref [] in
  List.iter
    (fun (ev : Online.event) ->
      let sc = Scenario.of_physical g [ ev.Online.link ] in
      let t0 = now () in
      (match ev.Online.kind with
      | Online.Fail -> st := Reconfig.fail !st sc
      | Online.Recover -> st := Reconfig.recover !st sc);
      let us = 1e6 *. (now () -. t0) in
      match ev.Online.kind with
      | Online.Fail -> fails := us :: !fails
      | Online.Recover -> recovers := us :: !recovers)
    schedule;
  let minor_words = Gc.minor_words () -. w0 in
  { fail_us = !fails; recover_us = !recovers; final = !st; minor_words }

(* Batch state of the schedule's final failed set: what every router must
   hold once the replay is done (Theorem 3). *)
let batch_final root schedule =
  let g = root.Reconfig.graph in
  let down = Hashtbl.create 8 in
  List.iter
    (fun (ev : Online.event) ->
      match ev.Online.kind with
      | Online.Fail -> Hashtbl.replace down ev.Online.link ()
      | Online.Recover -> Hashtbl.remove down ev.Online.link)
    schedule;
  Reconfig.fail root
    (Scenario.of_physical g (Hashtbl.fold (fun l () acc -> l :: acc) down []))

(* The reaction schedule of the precompute and sweep workloads: every
   physical link fails once per round, in a seeded order, while the link
   failed before it is still down, so recoveries are not trivial either
   (they replay one remaining failure from the pristine routings). Every
   seed gets the same link mix, so the median does not jump between the
   costs of individual links. *)
let coverage_schedule g ~seed ~fails =
  let rng = Prng.create seed in
  let links = Scenarios.physical_links g in
  let n = Array.length links in
  let ev link kind = { Online.at_ms = 0.0; link; kind } in
  List.concat
    (List.init ((fails + n - 1) / n) (fun _ ->
         let perm = Array.copy links in
         Prng.shuffle rng perm;
         List.concat
           (List.init n (fun i ->
                ev perm.(i) Online.Fail
                :: (if i > 0 then [ ev perm.(i - 1) Online.Recover ] else [])))
         @ [ ev perm.(n - 1) Online.Recover ]))

(* ---------- per-unit measurement record ---------- *)

(* What one timed unit of a workload reports. [stage_s] is the wall time
   of the workload's headline call; [layers] are per-layer values
   computed by the benchmark around its calls; [counts] are the
   deterministic outputs that must repeat across units. *)
type unit_result = {
  stage_s : float;
  headline : string * float * string;
      (** the stage as the workload's own rate or time, for the report *)
  fail_us : float list;  (** failure reactions replayed in the unit *)
  layers : (string * float) list;
  counts : (string * float) list;
}

(* ---------- workloads ---------- *)

type workload = {
  name : string;
  setup : seed:int -> (unit -> unit_result) * (string * float) list;
      (** returns the unit closure and set-up layer timings *)
}

let plan_path () =
  Filename.concat "_perfbench" (Printf.sprintf "plan-%d.r3plan" (Unix.getpid ()))

let reaction_fails = 300

(* precompute-uunet: TM -> plan -> snapshot -> reloaded plan. *)
let precompute_uunet =
  let setup ~seed =
    let inp = make_inputs (Topology.uunet_like ()) ~seed in
    let cfg = cg_config ~f:1 in
    let schedule = coverage_schedule inp.g ~seed ~fails:reaction_fails in
    let unit_ () =
      let path = plan_path () in
      let plan, compute_s =
        time (fun () ->
            Trace.with_span "perfbench.offline" (fun () ->
                Offline.compute cfg inp.g inp.tm (Offline.Fixed inp.base)))
      in
      let plan =
        match plan with Ok p -> p | Error msg -> failwith ("precompute: " ^ msg)
      in
      let (), save_s =
        time (fun () ->
            Trace.with_span "perfbench.plan_save" (fun () ->
                Plan_store.save path ~config:cfg plan))
      in
      let bytes = (Unix.stat path).Unix.st_size in
      let loaded, load_s =
        time (fun () ->
            Trace.with_span "perfbench.plan_load" (fun () ->
                Plan_store.load ~expect_graph:inp.g ~expect_config:cfg path))
      in
      Sys.remove path;
      let stage_s = compute_s +. save_s +. load_s in
      (* Checks, outside the timed stage. *)
      let loaded =
        match loaded with
        | Ok (p, _) -> p
        | Error msg ->
          check ("plan reload: " ^ msg) false;
          plan
      in
      let same, bit_s =
        time (fun () ->
            Reconfig.states_bit_identical (Reconfig.of_plan plan)
              (Reconfig.of_plan loaded))
      in
      check "reloaded plan bit-identical to computed plan" same;
      let base_loads = Routing.loads inp.g ~demands:plan.Offline.demands plan.Offline.base in
      let audited =
        Verify.offline_worst_mlu inp.g ~f:1 ~base_loads
          ~protection:plan.Offline.protection
      in
      check
        (Printf.sprintf "knapsack audit %.12g = plan MLU %.12g" audited plan.Offline.mlu)
        (Float.abs (audited -. plan.Offline.mlu)
        <= R3_lp.Tol.feas *. Float.max 1.0 plan.Offline.mlu);
      let root = Reconfig.of_plan loaded in
      let r = replay_schedule root schedule in
      check "reaction replay lands on the batch state"
        (Reconfig.states_bit_identical r.final (batch_final root schedule));
      {
        stage_s;
        headline = ("precompute_s", stage_s, "s");
        fail_us = r.fail_us;
        layers =
          [
            ("plan_store.save_s", save_s);
            ("plan_store.load_s", load_s);
            ("plan_store.bytes", float_of_int bytes);
            ("reconfig.bit_identical_s", bit_s);
            ("reconfig.fail_us_p50", median r.fail_us);
            ("reconfig.recover_us_p50", median r.recover_us);
            ("reconfig.step_us_p99", percentile 99.0 (r.fail_us @ r.recover_us));
          ];
        counts =
          [
            ("plan.lp_pivots", float_of_int plan.Offline.lp_pivots);
            ("plan.lp_rows", float_of_int plan.Offline.lp_rows);
            ("plan.mlu", plan.Offline.mlu);
            ("plan_store.bytes", float_of_int bytes);
            ("gc.replay_minor_words", r.minor_words);
          ];
      }
    in
    (unit_, [ ("net.ospf_routing_s", inp.ospf_s) ])
  in
  { name = "precompute-uunet"; setup }

let algorithms =
  Eval.[ Ospf_cspf_detour; Ospf_recon; Fcp; Path_splice; Ospf_r3; Ospf_opt ]

let algorithm_slug = function
  | Eval.Ospf_cspf_detour -> "ospf_cspf_detour"
  | Eval.Ospf_recon -> "ospf_recon"
  | Eval.Fcp -> "fcp"
  | Eval.Path_splice -> "path_splice"
  | Eval.Ospf_r3 -> "ospf_r3"
  | Eval.Ospf_opt -> "ospf_opt"
  | Eval.Mplsff_r3 -> "mplsff_r3"

let spot_count = 4

(* Whether [v] appears bit-for-bit in a sweep's sorted curve. *)
let in_curve curve v =
  Array.exists (fun x -> Int64.bits_of_float x = Int64.bits_of_float v) curve

(* sweep-abilene: one cold ratio sweep per unit. *)
let sweep_abilene =
  let setup ~seed =
    let inp = make_inputs (Topology.abilene ()) ~seed in
    let kmax = 3 in
    let plan, plan_s = time (fun () -> structured_plan inp ~k:kmax) in
    let env =
      Eval.make_env inp.g ~weights:inp.weights ~pairs:plan.Offline.pairs
        ~demands:plan.Offline.demands ~ospf_r3:plan ()
    in
    let scenarios =
      List.concat_map
        (fun k ->
          if k <= 2 then Scenarios.enumerate inp.g ~k
          else Scenarios.sample inp.g ~k ~count:300 ~seed)
        [ 1; 2; 3 ]
    in
    let spot =
      Array.to_list
        (Prng.sample (Prng.create (seed + 7919)) spot_count (Array.of_list scenarios))
    in
    let schedule = coverage_schedule inp.g ~seed ~fails:reaction_fails in
    let root = Reconfig.of_plan plan in
    let unit_ () =
      let cache = Eval.mcf_cache env in
      let s, stage_s =
        time (fun () ->
            Trace.with_span "perfbench.sweep" (fun () ->
                Sweep.run ~cache ~metric:`Ratio env ~algorithms scenarios))
      in
      check "fresh MCF cache: no hits" (s.Sweep.mcf_hits = 0);
      check "every scenario evaluated"
        (s.Sweep.scenario_count = List.length (List.sort_uniq Scenario.compare scenarios));
      (* Spot check: the sampled scenarios and every worst-case witness,
         re-run one by one through Eval.evaluate, must reproduce the
         sweep's values bit for bit. The optimum is solved first so the
         per-algorithm timings exclude the MCF normalizer. *)
      let spot_cache = Eval.mcf_cache env in
      let witnesses =
        Array.to_list s.Sweep.worst |> List.filter_map (Option.map fst)
      in
      let eval_us = Array.make (List.length algorithms) [] in
      List.iter
        (fun sc ->
          ignore (Eval.optimal ~cache:spot_cache env sc);
          List.iteri
            (fun i alg ->
              let r, dt = time (fun () -> Eval.evaluate ~cache:spot_cache env alg sc) in
              eval_us.(i) <- (1e6 *. dt) :: eval_us.(i);
              let name =
                Printf.sprintf "%s on %s matches the sweep" (Eval.algorithm_name alg)
                  (Scenario.describe inp.g sc)
              in
              match r.Eval.ratio with
              | Some v when Float.is_finite v -> check name (in_curve s.Sweep.curves.(i) v)
              | _ -> check name (s.Sweep.undefined.(i) > 0))
            algorithms)
        (spot @ witnesses);
      Array.iteri
        (fun i w ->
          match w with
          | None -> ()
          | Some (sc, v) ->
            let r = Eval.evaluate ~cache:spot_cache env s.Sweep.algorithms.(i) sc in
            check "worst-case witness reproduces its value"
              (match r.Eval.ratio with
              | Some v' -> Int64.bits_of_float v' = Int64.bits_of_float v
              | None -> false))
        s.Sweep.worst;
      let r = replay_schedule root schedule in
      check "reaction replay lands on the batch state"
        (Reconfig.states_bit_identical r.final (batch_final root schedule));
      let curve_digest =
        Array.fold_left
          (fun acc c ->
            Array.fold_left (fun acc x -> Hashtbl.hash (acc, Int64.bits_of_float x)) acc c)
          0 s.Sweep.curves
      in
      {
        stage_s;
        headline =
          ( "sweep_scenarios_per_s",
            float_of_int s.Sweep.scenario_count /. stage_s,
            "1/s" );
        fail_us = r.fail_us;
        layers =
          ("reconfig.fail_us_p50", median r.fail_us)
          :: ("reconfig.recover_us_p50", median r.recover_us)
          :: ("reconfig.step_us_p99", percentile 99.0 (r.fail_us @ r.recover_us))
          :: List.mapi
               (fun i alg ->
                 (Printf.sprintf "eval.%s_us_p50" (algorithm_slug alg), median eval_us.(i)))
               algorithms;
        counts =
          [
            ("sweep.scenarios", float_of_int s.Sweep.scenario_count);
            ("sweep.mcf_misses", float_of_int s.Sweep.mcf_misses);
            ("sweep.curve_digest", float_of_int curve_digest);
            ("gc.replay_minor_words", r.minor_words);
          ];
      }
    in
    (unit_, [ ("net.ospf_routing_s", inp.ospf_s); ("setup.plan_s", plan_s) ])
  in
  { name = "sweep-abilene"; setup }

let online_events = 2000

let fib_entries (fib : Fib.t) =
  Array.fold_left
    (fun acc (r : Fib.router_fib) ->
      Hashtbl.fold (fun _ (fwd : Fib.fwd) acc -> acc + Array.length fwd.Fib.nhlfes) r.Fib.ilm acc)
    0 fib.Fib.fibs

(* online-pop36: one faulty-channel Online.run per unit. *)
let online_pop36 =
  let setup ~seed =
    let inp = make_inputs (pop36 ()) ~seed in
    let plan, plan_s = time (fun () -> structured_plan inp ~k:2) in
    let root = Reconfig.of_plan plan in
    let schedule =
      Online.generate inp.g ~seed ~events:online_events ~max_concurrent:2 ()
    in
    let channel = Online.Channel.faulty Online.Channel.default_faults in
    let unit_ () =
      let o, stage_s =
        time (fun () ->
            Trace.with_span "perfbench.online" (fun () ->
                Online.run ~channel ~seed ~mlu_bound:plan.Offline.mlu ~fibs:true root
                  schedule))
      in
      check "every router view converged to the batch state (Theorem 3)"
        o.Online.order_independent;
      check "per-router FIBs match a full rebuild" o.Online.fib_consistent;
      let r = replay_schedule root schedule in
      let same, bit_s =
        time (fun () -> Reconfig.states_bit_identical r.final o.Online.terminal)
      in
      check "reaction replay lands on the online terminal state" same;
      let fib, fib_s =
        time (fun () -> Fib.of_protection inp.g o.Online.terminal.Reconfig.protection)
      in
      let st = o.Online.stats in
      {
        stage_s;
        headline =
          ("online_events_per_s", float_of_int st.Online.events /. stage_s, "1/s");
        fail_us = r.fail_us;
        layers =
          [
            ("reconfig.fail_us_p50", median r.fail_us);
            ("reconfig.recover_us_p50", median r.recover_us);
            ("reconfig.step_us_p99", percentile 99.0 (r.fail_us @ r.recover_us));
            ("reconfig.bit_identical_s", bit_s);
            ("online.run_s", stage_s);
            ("online.deliveries", float_of_int st.Online.deliveries);
            ("online.stale", float_of_int st.Online.stale);
            ("online.drops", float_of_int st.Online.drops);
            ("online.distinct_states", float_of_int st.Online.distinct_states);
            ("online.router_views", float_of_int (G.num_nodes inp.g));
            ("mplsff.fib_rebuild_s", fib_s);
            ("mplsff.fib_entries", float_of_int (fib_entries fib));
          ];
        counts =
          [
            ("online.events", float_of_int st.Online.events);
            ("online.deliveries", float_of_int st.Online.deliveries);
            ("online.stale", float_of_int st.Online.stale);
            ("online.drops", float_of_int st.Online.drops);
            ("online.retries", float_of_int st.Online.retries);
            ("online.distinct_states", float_of_int st.Online.distinct_states);
            ("online.quiescent_mlu", o.Online.quiescent_mlu);
            ("mplsff.fib_entries", float_of_int (fib_entries fib));
            ("gc.replay_minor_words", r.minor_words);
          ];
      }
    in
    (unit_, [ ("net.ospf_routing_s", inp.ospf_s); ("setup.plan_s", plan_s) ])
  in
  { name = "online-pop36"; setup }

let workloads = [ precompute_uunet; sweep_abilene; online_pop36 ]

(* ---------- per-layer attribution from the trace ---------- *)

(* Total and self time per span name. Spans nest lexically per domain,
   so within one domain, sorted by start (parents first on ties), the
   parent of a span at depth d is the latest span seen at depth d-1. *)
let span_times spans =
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun (s : Trace.span) ->
      let l = try Hashtbl.find by_domain s.Trace.domain with Not_found -> [] in
      Hashtbl.replace by_domain s.Trace.domain (s :: l))
    spans;
  let total = Hashtbl.create 32 and self = Hashtbl.create 32 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
  in
  Hashtbl.iter
    (fun _ l ->
      let arr = Array.of_list l in
      Array.sort
        (fun (a : Trace.span) (b : Trace.span) ->
          match Float.compare a.Trace.start b.Trace.start with
          | 0 -> Int.compare a.Trace.depth b.Trace.depth
          | c -> c)
        arr;
      let child_sum = Array.make (Array.length arr) 0.0 in
      let open_at = Hashtbl.create 8 in
      Array.iteri
        (fun i (s : Trace.span) ->
          Hashtbl.replace open_at s.Trace.depth i;
          if s.Trace.depth > 0 then
            match Hashtbl.find_opt open_at (s.Trace.depth - 1) with
            | Some p when Some arr.(p).Trace.name = s.Trace.parent ->
              child_sum.(p) <- child_sum.(p) +. s.Trace.duration
            | _ -> ())
        arr;
      Array.iteri
        (fun i (s : Trace.span) ->
          add total s.Trace.name s.Trace.duration;
          add self s.Trace.name (Float.max 0.0 (s.Trace.duration -. child_sum.(i))))
        arr)
    by_domain;
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
  (get total, get self)

(* Time pool workers spent inside top-level spans (the spans they ran as
   tasks), summed over worker domains. *)
let worker_busy_s spans =
  let main = (Domain.self () :> int) in
  List.fold_left
    (fun acc (s : Trace.span) ->
      if s.Trace.domain <> main && s.Trace.depth = 0 then acc +. s.Trace.duration else acc)
    0.0 spans

let counter_names =
  [
    "lp.pivots"; "lp.phase1_pivots"; "lp.degenerate_pivots"; "lp.dual_pivots";
    "lp.rev.refactorizations"; "lp.solves"; "offline.cg.rounds"; "offline.cg.cuts";
    "mcf.runs"; "mcf.iterations"; "mcf.phases"; "sweep.tree_nodes"; "sweep.cow_steps";
    "sweep.cache.hits"; "sweep.cache.misses";
  ]

(* Per-layer values of one traced unit. *)
let traced_unit ~variant unit_ ~pool_size =
  Metrics.reset ();
  Trace.reset ();
  let p0 = Pool.stats () in
  let g0 = Gc.quick_stat () in
  let r, wall = time unit_ in
  let g1 = Gc.quick_stat () in
  let p1 = Pool.stats () in
  let spans = Trace.spans () in
  check "trace ring kept every span" (Trace.dropped () = 0);
  let total, self = span_times spans in
  let busy = worker_busy_s spans in
  let counters =
    List.map (fun n -> (n, float_of_int (Metrics.counter_value n))) counter_names
  in
  check_repeats ~variant
    (("pool.tasks", float_of_int (p1.Pool.tasks - p0.Pool.tasks)) :: counters);
  check "sweep cache never hit" (Metrics.counter_value "sweep.cache.hits" = 0);
  let spans_layer =
    [
      ("lp.cold_solve_s", total "lp.rev.solve");
      ("lp.warm_resolve_s", total "lp.rev.resolve");
      ("offline.build_s", total "offline.build");
      ("offline.oracle_s", total "offline.oracle");
      ("offline.audit_s", total "offline.audit");
      ("offline.self_s", self "offline.compute");
      ("mcf.solve_s", total "mcf.solve");
      ("sweep.run_s", total "sweep.run");
      ("pool.tasks", float_of_int (p1.Pool.tasks - p0.Pool.tasks));
      ("pool.steals", float_of_int (p1.Pool.steals - p0.Pool.steals));
      ("pool.parks", float_of_int (p1.Pool.parks - p0.Pool.parks));
      ("pool.worker_busy_s", busy);
      ( "pool.busy_share",
        if pool_size > 1 then busy /. (wall *. float_of_int (pool_size - 1)) else 0.0 );
      ("gc.minor_mwords", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
      ("gc.major_mwords", (g1.Gc.major_words -. g0.Gc.major_words) /. 1e6);
      ( "gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ]
  in
  (r, counters @ spans_layer)

(* ---------- main ---------- *)

(* Set-up is repeated at least this often and for at least this long:
   the sweep's takes milliseconds, so a handful of repetitions would
   leave its median at the mercy of one slow sample. *)
let setup_min_reps = 3
let setup_min_seconds = 1.0

(* Each run sets up this many input variants (seeds [seed * variants + j])
   and cycles its units through them, so a run's median spans several
   traffic matrices and schedules instead of resting on one draw: LP
   pivots alone vary by about 4% from one gravity matrix to the next. *)
let variants = 4

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: precompute-uunet sweep-abilene online-pop36";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0.0 && (t = "0" || t = "1") -> (
    match List.find_opt (fun wl -> wl.name = w) workloads with
    | Some wl -> (wl, s, secs, t = "1")
    | None -> usage ())
  | _ -> usage ()

(* Run [f 0], [f 1], ... back to back until [seconds] have passed (at
   least once). *)
let repeat_for ~seconds f =
  let t0 = now () in
  let rec go i acc =
    let acc = f i :: acc in
    if now () -. t0 >= seconds then List.rev acc else go (i + 1) acc
  in
  go 0 []

(* Unit of a per-layer metric, by the naming convention of BENCHMARK.json. *)
let unit_of_layer name =
  let suffixes =
    [
      ("_s", "s"); ("_us_p50", "us"); ("_us_p99", "us"); ("_pct", "%");
      ("_share", "share"); ("_mwords", "Mwords"); (".bytes", "bytes");
    ]
  in
  match List.find_opt (fun (suffix, _) -> String.ends_with ~suffix name) suffixes with
  | Some (_, u) -> u
  | None -> "count"

let () =
  let wl, seed, seconds, traced = parse_args () in
  (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
  let pool_size = Int.max 1 (Int.min 2 (Domain.recommended_domain_count ())) in
  Pool.set_domains pool_size;
  Metrics.set_enabled false;
  Trace.set_enabled false;
  Trace.set_capacity (1 lsl 16);
  (* The first set-up (which also starts the pool) feeds the timed units;
     further repetitions, only timed, run after the peak heap is read so
     their garbage does not count. *)
  let setup_once () =
    time (fun () ->
        let r = Array.init variants (fun j -> wl.setup ~seed:((seed * variants) + j)) in
        Pool.await (Pool.submit ignore);
        r)
  in
  let first, first_s = setup_once () in
  (* Units cycle through the input variants. *)
  let run_unit i =
    let variant = i mod variants in
    (variant, fst first.(variant))
  in
  (* A traced run splits its time between an untraced baseline and the
     traced units, so both kinds of run take about as long. *)
  let window = if traced then seconds /. 2.0 else seconds in
  let units =
    repeat_for ~seconds:window (fun i ->
        let variant, unit_ = run_unit i in
        let r = unit_ () in
        check_repeats ~variant r.counts;
        r)
  in
  let stage_s = median (List.map (fun r -> r.stage_s) units) in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let traced_units =
    if not traced then []
    else begin
      (* Recording allocates, so traced units repeat among themselves. *)
      Hashtbl.reset repeat_table;
      Metrics.set_enabled true;
      Trace.set_enabled true;
      let us =
        repeat_for ~seconds:window (fun i ->
            let variant, unit_ = run_unit i in
            let r, layers = traced_unit ~variant unit_ ~pool_size in
            check_repeats ~variant r.counts;
            (variant, r, layers))
      in
      Metrics.set_enabled false;
      Trace.set_enabled false;
      us
    end
  in
  let t0 = now () in
  let rec more acc =
    if List.length acc >= setup_min_reps && now () -. t0 >= setup_min_seconds then acc
    else more (setup_once () :: acc)
  in
  let setups = (first, first_s) :: more [] in
  let setup_s = median (List.map snd setups) in
  Printf.printf
    "provenance: cores=%d ocaml=%s pool_domains=%d workload=%s seed=%d \
     seconds=%g trace=%b\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version pool_size wl.name seed
    seconds traced;
  Printf.printf "set-up: %d repetitions, median %.6f s\n" (List.length setups) setup_s;
  Printf.printf "timed units: %d, stage_s each: %s\n" (List.length units)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" r.stage_s) units));
  (let name, _, u = (List.hd units).headline in
   Printf.printf "  %-28s %18.6f %s\n" name
     (median (List.map (fun r -> let _, v, _ = r.headline in v) units))
     u);
  List.iter
    (fun (n, v) -> Printf.printf "  %-28s %18.17g count\n" n v)
    (List.hd units).counts;
  let metrics =
    if not traced then
      [
        ("setup_s", setup_s, "s");
        ("stage_s", stage_s, "s");
        ("reaction_p50_us", median (List.concat_map (fun r -> r.fail_us) units), "us");
        ("peak_heap_mb", peak_heap_mb, "MB");
      ]
    else begin
      Printf.printf
        "traced units: %d (pool.steals, pool.parks and gc.major_collections are \
         nondeterministic)\n"
        (List.length traced_units);
      let traced_stage = median (List.map (fun (_, r, _) -> r.stage_s) traced_units) in
      (* Per-layer values come from the first variant's units, which every
         run reaches, so a seed's counts are the same in every run. *)
      let per_unit =
        List.filter_map
          (fun (v, r, l) -> if v = 0 then Some (r.layers @ l) else None)
          traced_units
      in
      let names = List.sort_uniq String.compare (List.concat_map (List.map fst) per_unit) in
      (* Set-up layers add up over the variants. *)
      let setup_layer name =
        median
          (List.map
             (fun (vs, _) ->
               Array.fold_left (fun acc (_, l) -> acc +. List.assoc name l) 0.0 vs)
             setups)
      in
      List.map
        (fun n -> (n, median (List.filter_map (List.assoc_opt n) per_unit), unit_of_layer n))
        names
      @ List.map (fun (n, _) -> (n, setup_layer n, unit_of_layer n)) (snd first.(0))
      @ [ ("trace.overhead_pct", 100.0 *. (traced_stage -. stage_s) /. stage_s, "%") ]
    end
  in
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %18.6f %s\n" n v u) metrics;
  Printf.printf "checks: %d attempted, %d failed, error_rate %g\n" !attempted !failed
    (float_of_int !failed /. float_of_int (Int.max 1 !attempted));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v, u) ->
                     (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                   metrics) );
          ]))
