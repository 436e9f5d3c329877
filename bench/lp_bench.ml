(* LP-layer benchmark: simplex backends (sparse tableau, LU-factorized
   revised) on the paper's dualized offline LP, and cold vs
   warm-started constraint generation per backend. Results go to stdout
   (paper-style table) and to BENCH_lp.json in the working directory, so
   the perf trajectory is tracked in-repo PR over PR.

   Run as:  dune exec bench/main.exe -- lp          (quick: Abilene + PoP)
            dune exec bench/main.exe -- --full lp   (adds the US-ISP map) *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Ospf = R3_net.Ospf
module Offline = R3_core.Offline
module P = R3_lp.Problem
module J = R3_util.Json

let output_path = "BENCH_lp.json"

let plan_exn = function Ok p -> p | Error e -> failwith ("lp bench: " ^ e)

(* A fixed OSPF base keeps the LP identical across backends: only the
   solver changes. *)
let setup ~seed g =
  let rng = R3_util.Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, _ = Traffic.commodities tm in
  let base = Ospf.routing g ~weights:(Ospf.unit_weights g) ~pairs () in
  (tm, base)

(* Refactorization counts live in the metrics layer, not the plan; the
   bench is single-threaded so a counter delta brackets one run. *)
let refactor_count () = R3_util.Metrics.counter_value "lp.rev.refactorizations"

(* Seconds spent inside the LP solver proper (first solves + warm
   resolves), from the trace span — the backend-independent oracle and
   model-build time dilutes whole-compute ratios on small instances. *)
let lp_solve_seconds () =
  List.fold_left
    (fun acc (name, _, secs) ->
      if String.equal name "offline.lp_solve" then acc +. secs else acc)
    0.0
    (R3_util.Trace.summary ())

type run = {
  backend : P.backend;
  plan : Offline.plan;
  seconds : float;
  lp_seconds : float;
  refactorizations : int;
}

(* Time one compute; short runs are repeated (identical config, fresh
   state each time) and the minimum kept, so the millisecond-scale CG
   cases aren't at the mercy of one scheduler hiccup. *)
let timed_compute cfg g tm base =
  let r0 = refactor_count () in
  let run () =
    let l0 = lp_solve_seconds () in
    let res, dt =
      R3_util.Timer.time (fun () -> Offline.compute cfg g tm (Offline.Fixed base))
    in
    (plan_exn res, dt, lp_solve_seconds () -. l0)
  in
  let plan, dt0, lp0 = run () in
  let refactorizations = refactor_count () - r0 in
  let best = ref (dt0, lp0) in
  let reps = ref 1 and elapsed = ref dt0 in
  while !reps < 25 && !elapsed < 0.75 do
    let _, dt, lp = run () in
    if dt < fst !best then best := (dt, lp);
    elapsed := !elapsed +. dt;
    incr reps
  done;
  (plan, fst !best, snd !best, refactorizations)

(* Per-solver metadata block shared by both cases: which engine ran, how
   many pivots it spent and how often it rebuilt its factorization. *)
let run_json r extra =
  J.Obj
    ([
       ("backend", J.String (P.backend_name r.backend));
       ("seconds", J.Float r.seconds);
       ("lp_seconds", J.Float r.lp_seconds);
       ("pivots", J.Int r.plan.Offline.lp_pivots);
       ("refactorizations", J.Int r.refactorizations);
       ("mlu", J.Float r.plan.Offline.mlu);
     ]
    @ extra)

(* Paper LP (7), one cold solve per backend. *)
let dualized_case ~f g tm base =
  let run backend =
    let cfg =
      Offline.default_config ~f
      |> Offline.with_core R3_core.Config.(default |> with_lp_backend backend)
    in
    let plan, seconds, lp_seconds, refactorizations =
      timed_compute cfg g tm base
    in
    { backend; plan; seconds; lp_seconds; refactorizations }
  in
  let tableau = run `Sparse and revised = run `Revised in
  let mlu_delta = Float.abs (tableau.plan.Offline.mlu -. revised.plan.Offline.mlu) in
  let revised_speedup = tableau.seconds /. Float.max revised.seconds 1e-9 in
  Printf.printf
    "  dualized LP (F=%d): %d vars, %d rows | tableau %.2fs/%d pv | revised \
     %.2fs/%d pv/%d refac | rev speedup %.1fx | dMLU %.2g\n%!"
    f revised.plan.Offline.lp_vars revised.plan.Offline.lp_rows tableau.seconds
    tableau.plan.Offline.lp_pivots revised.seconds revised.plan.Offline.lp_pivots
    revised.refactorizations revised_speedup mlu_delta;
  J.Obj
    [
      ("lp_vars", J.Int revised.plan.Offline.lp_vars);
      ("lp_rows", J.Int revised.plan.Offline.lp_rows);
      ("tableau", run_json tableau []);
      ("revised", run_json revised []);
      ("revised_speedup", J.Float revised_speedup);
      ( "lp_speedup",
        J.Float (tableau.lp_seconds /. Float.max revised.lp_seconds 1e-9) );
      ("mlu_delta", J.Float mlu_delta);
    ]

(* Constraint generation: cold re-solve per round vs warm basis repair,
   for the tableau and the revised engines. Two headline numbers:
   revised-warm against tableau-warm (same cuts, same warm policy, only
   the pivoting engine differs) and revised-cold against tableau-cold
   (the pure engine comparison — every round re-solved from scratch, so
   no warm-start repair amortizes the first solve for either side). *)
let cg_case ~f g tm base =
  let run backend warm =
    let cfg =
      {
        (Offline.default_config ~f) with
        Offline.solve_method = Offline.Constraint_gen;
        cg_warm_start = warm;
        core = R3_core.Config.(default |> with_lp_backend backend);
      }
    in
    let plan, seconds, lp_seconds, refactorizations =
      timed_compute cfg g tm base
    in
    { backend; plan; seconds; lp_seconds; refactorizations }
  in
  let engine backend =
    let cold = run backend false and warm = run backend true in
    let pivot_ratio =
      float_of_int cold.plan.Offline.lp_pivots
      /. Float.max (float_of_int warm.plan.Offline.lp_pivots) 1.0
    in
    let json =
      J.Obj
        [
          ("cold", run_json cold [ ("cut_rows", J.Int cold.plan.Offline.lp_rows) ]);
          ("warm", run_json warm [ ("cut_rows", J.Int warm.plan.Offline.lp_rows) ]);
          ("pivot_ratio", J.Float pivot_ratio);
          ("warm_speedup", J.Float (cold.seconds /. Float.max warm.seconds 1e-9));
        ]
    in
    (cold, warm, json)
  in
  let tab_cold, tab_warm, tab_json = engine `Sparse in
  let rev_cold, rev_warm, rev_json = engine `Revised in
  let revised_speedup = tab_warm.seconds /. Float.max rev_warm.seconds 1e-9 in
  let cold_speedup = tab_cold.seconds /. Float.max rev_cold.seconds 1e-9 in
  let lp_speedup =
    tab_warm.lp_seconds /. Float.max rev_warm.lp_seconds 1e-9
  in
  let mlu_delta =
    Float.abs (tab_warm.plan.Offline.mlu -. rev_warm.plan.Offline.mlu)
  in
  Printf.printf
    "  constraint gen (F=%d): tableau warm %.4fs/%d pv | revised warm \
     %.4fs/%d pv/%d refac | revised speedup %.1fx warm / %.1fx cold (lp \
     %.1fx) | dMLU %.2g\n%!"
    f tab_warm.seconds tab_warm.plan.Offline.lp_pivots rev_warm.seconds
    rev_warm.plan.Offline.lp_pivots rev_warm.refactorizations revised_speedup
    cold_speedup lp_speedup mlu_delta;
  J.Obj
    [
      ("tableau", tab_json);
      ("revised", rev_json);
      ("revised_speedup", J.Float revised_speedup);
      ("cold_speedup", J.Float cold_speedup);
      ("lp_speedup", J.Float lp_speedup);
      ("mlu_delta", J.Float mlu_delta);
    ]

let scenario ~tag ~seed ~f g =
  Printf.printf "%s: %d nodes, %d directed links\n%!" tag (G.num_nodes g)
    (G.num_links g);
  let tm, base = setup ~seed g in
  let dualized = dualized_case ~f g tm base in
  let cg = cg_case ~f g tm base in
  J.Obj
    [
      ("topology", J.String tag);
      ("nodes", J.Int (G.num_nodes g));
      ("links", J.Int (G.num_links g));
      ("f", J.Int f);
      ("dualized", dualized);
      ("constraint_gen", cg);
    ]

(* A synthesized PoP-scale topology above the 30-directed-link mark, kept
   apart from the Table 1 catalog so its size can grow independently. *)
let pop g_seed = Topology.random ~seed:g_seed ~nodes:16 ~undirected_links:18
    ~capacities:[ (100.0, 2.0); (400.0, 1.0) ] ()

let run () =
  Harness.section "LP core: simplex backends, cold vs warm CG";
  let scenarios =
    [ scenario ~tag:"abilene" ~seed:7 ~f:1 (Topology.abilene ());
      scenario ~tag:"pop36" ~seed:21 ~f:1 (pop 3) ]
    @ (if !Harness.quick then []
       else [ scenario ~tag:"usisp" ~seed:33 ~f:1 (Topology.usisp_like ()) ])
  in
  let doc =
    J.Obj
      [
        ("bench", J.String "lp");
        ("mode", J.String (if !Harness.quick then "quick" else "full"));
        ("parallel_domains", J.Int (R3_util.Parallel.domains ()));
        ("scenarios", J.List scenarios);
      ]
  in
  J.write_file output_path doc;
  Harness.note "wrote %s" output_path
