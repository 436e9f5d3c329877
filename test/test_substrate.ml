(* Tests for the sparse routing-state substrate: the shared Rowvec
   kernels and the contract that failure folding on Routing.t is
   bit-identical to the dense-matrix reference of equations (8)-(10)
   (R3_check.Fold_ref). *)

module Rowvec = R3_util.Rowvec
module Prng = R3_util.Prng
module G = R3_net.Graph
module Routing = R3_net.Routing
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Spf = R3_net.Spf
module Reconfig = R3_core.Reconfig
module Scenario = R3_core.Scenario
module Fold_ref = R3_check.Fold_ref

(* Physical (bidirectional) failure of one link as a singleton delta. *)
let fail_bidir g st e = Reconfig.fail st (Scenario.of_links g [ e ])

let check_f name expected got =
  Alcotest.(check (float 0.0)) name expected got

(* ---- Rowvec kernels ---- *)

let test_rowvec_basics () =
  let r = Rowvec.create () in
  Alcotest.(check int) "empty nnz" 0 (Rowvec.nnz r);
  check_f "empty get" 0.0 (Rowvec.get r 3);
  (* out-of-order insertion, then overwrite and delete-by-zero *)
  Rowvec.set r 5 2.0;
  Rowvec.set r 1 1.0;
  Rowvec.set r 9 3.0;
  Rowvec.set r 5 2.5;
  Alcotest.(check int) "nnz after sets" 3 (Rowvec.nnz r);
  check_f "get 5" 2.5 (Rowvec.get r 5);
  Rowvec.set r 1 0.0;
  Alcotest.(check int) "exact zero removes" 2 (Rowvec.nnz r);
  Rowvec.clear r 9;
  Alcotest.(check int) "clear removes" 1 (Rowvec.nnz r);
  (* ascending iteration order *)
  let r = Rowvec.of_pairs [| 4; 0; 4; 2 |] [| 1.0; 2.0; 0.5; 3.0 |] in
  let order = ref [] in
  Rowvec.iter (fun j x -> order := (j, x) :: !order) r;
  Alcotest.(check (list (pair int (float 0.0))))
    "of_pairs sums duplicates, sorted"
    [ (0, 2.0); (2, 3.0); (4, 1.5) ]
    (List.rev !order)

let test_rowvec_dense_round_trip () =
  (* Exact-zero drop keeps denormals and negatives, drops both zeros. *)
  let a = [| 0.0; 1e-300; -3.5; -0.0; 2.0; 0.0 |] in
  let r = Rowvec.of_dense a in
  Alcotest.(check int) "nnz keeps tiny values" 3 (Rowvec.nnz r);
  let back = Rowvec.to_dense (Array.length a) r in
  (* -0.0 normalizes to +0.0 through the sparse representation *)
  Alcotest.(check bool) "round trip (zeros normalized)" true
    (back = [| 0.0; 1e-300; -3.5; 0.0; 2.0; 0.0 |]);
  (* full row: every entry stored *)
  let full = Array.init 16 (fun i -> float_of_int (i + 1)) in
  let rf = Rowvec.of_dense full in
  Alcotest.(check int) "full row nnz" 16 (Rowvec.nnz rf);
  Alcotest.(check bool) "full round trip" true (Rowvec.to_dense 16 rf = full);
  (* nonzero drop tolerance is strict: |x| > drop keeps *)
  let rd = Rowvec.of_dense ~drop:1e-9 [| 1e-9; 2e-9; -1e-9 |] in
  Alcotest.(check int) "drop strict inequality" 1 (Rowvec.nnz rd)

let test_rowvec_axpy_aliasing () =
  (* y := y - factor * x with y == x must behave as scaling. *)
  let y = Rowvec.of_pairs [| 0; 3; 7 |] [| 1.0; 2.0; 4.0 |] in
  Rowvec.axpy ~y ~x:y 0.5;
  check_f "aliased axpy 0" 0.5 (Rowvec.get y 0);
  check_f "aliased axpy 3" 1.0 (Rowvec.get y 3);
  check_f "aliased axpy 7" 2.0 (Rowvec.get y 7);
  (* exact cancellation drops entries *)
  let y = Rowvec.of_pairs [| 1; 2 |] [| 3.0; 5.0 |] in
  let x = Rowvec.of_pairs [| 1 |] [| 3.0 |] in
  Rowvec.axpy ~y ~x 1.0;
  Alcotest.(check int) "cancelled entry dropped" 1 (Rowvec.nnz y);
  check_f "surviving entry" 5.0 (Rowvec.get y 2)

let test_rowvec_scatter_and_dot () =
  let r = Rowvec.of_pairs [| 1; 4 |] [| 2.0; -1.0 |] in
  let into = [| 10.0; 10.0; 10.0; 10.0; 10.0 |] in
  Rowvec.scatter_add ~scale:2.0 r ~into;
  Alcotest.(check bool) "scatter_add" true
    (into = [| 10.0; 14.0; 10.0; 10.0; 8.0 |]);
  check_f "dot" ((2.0 *. 14.0) +. (-1.0 *. 8.0)) (Rowvec.dot r into)

let test_rowvec_merged_matches_dense () =
  let rng = Prng.create 42 in
  let width = 12 in
  for _ = 1 to 200 do
    let rand_dense () =
      Array.init width (fun _ ->
          if Prng.int rng 3 = 0 then 0.0 else Prng.float rng 1.0)
    in
    let yd = rand_dense () and xd = rand_dense () in
    let skip = Prng.int rng width in
    let factor = Prng.float rng 2.0 in
    let y = Rowvec.of_dense yd and x = Rowvec.of_dense xd in
    let got = Rowvec.to_dense width (Rowvec.merged ~skip ~y ~x factor) in
    (* reference: dense in-place update, entry [skip] zeroed *)
    let expect = Array.copy yd in
    Array.iteri
      (fun j v -> if v <> 0.0 then expect.(j) <- expect.(j) +. (factor *. v))
      xd;
    expect.(skip) <- 0.0;
    Array.iteri
      (fun j e ->
        if Int64.bits_of_float got.(j) <> Int64.bits_of_float (e +. 0.0) then
          Alcotest.failf "merged bit mismatch at %d: %h vs %h" j got.(j) e)
      expect
  done

(* ---- failure folding against the dense reference ---- *)

(* Same synthetic protection shape as the reconfig bench: the SPF detour
   path around each link, or the self row when the failure disconnects. *)
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

let make_state g ~seed =
  let rng = Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, demands = Traffic.commodities tm in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  let protection = synthetic_protection g in
  Reconfig.make g ~pairs ~demands ~base ~protection

let check_reference ctx reference st =
  match Fold_ref.mismatch reference st with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" ctx d

(* Randomized failure sequences from the pristine state. After every
   round the sparse row storage must hold the dense reference's bits,
   both stepped (physical [fail] and directed [apply_failures]) and
   folded in one [apply_failures] call. *)
let check_backend_identity g ~seed ~rounds ~max_fail =
  let st = make_state g ~seed in
  let rng = Prng.create (seed + 1) in
  let m = G.num_links g in
  for round = 1 to rounds do
    let nfail = 1 + Prng.int rng max_fail in
    let links =
      List.init nfail (fun _ -> (Prng.int rng m, Prng.int rng 2 = 0))
    in
    let stepped, reference =
      List.fold_left
        (fun (st, r) (e, bidir) ->
          if bidir then
            let sc = Scenario.of_links g [ e ] in
            (Reconfig.fail st sc, Fold_ref.fail r (Scenario.links sc))
          else (Reconfig.apply_failures st [ e ], Fold_ref.fail r [ e ]))
        (st, Fold_ref.of_state st) links
    in
    check_reference (Printf.sprintf "round %d" round) reference stepped;
    let plain = List.map fst links in
    check_reference
      (Printf.sprintf "round %d apply_failures" round)
      (Fold_ref.fail (Fold_ref.of_state st) plain)
      (Reconfig.apply_failures st plain)
  done

let test_backend_identity_abilene () =
  check_backend_identity (Topology.abilene ()) ~seed:3 ~rounds:12 ~max_fail:3

let test_backend_identity_random () =
  let g =
    Topology.random ~seed:17 ~nodes:16 ~undirected_links:30
      ~capacities:[ (10.0, 0.5); (40.0, 0.5) ]
      ()
  in
  check_backend_identity g ~seed:5 ~rounds:8 ~max_fail:4

(* Mutating a routing after a copy-on-write fold must not leak into the
   parent or sibling states (payload sharing stays invisible). *)
let test_cow_isolation () =
  let g = Topology.abilene () in
  let st = make_state g ~seed:9 in
  let reference =
    Fold_ref.fail (Fold_ref.of_state st)
      (Scenario.links (Scenario.of_links g [ 0 ]))
  in
  let before = Routing.to_dense_matrix st.Reconfig.base in
  let child = fail_bidir g st 0 in
  check_reference "child" reference child;
  (* parent unchanged by the fold *)
  Alcotest.(check bool) "parent base intact" true
    (Routing.to_dense_matrix st.Reconfig.base = before);
  (* writing into the child must not corrupt the parent... *)
  Routing.set child.Reconfig.base 0 1 0.123;
  Alcotest.(check bool) "parent isolated from child writes" true
    (Routing.to_dense_matrix st.Reconfig.base = before);
  (* ...and writing into the parent must not corrupt another child *)
  let child2 = fail_bidir g st 0 in
  Routing.set st.Reconfig.base 0 2 0.456;
  check_reference "children isolated from parent writes" reference child2

(* Stepping the same root state from several domains at once (the sweep
   engine's access pattern) must be race-free: the fold seals the parent
   with an atomic generation bump and the column support index is
   published atomically once fully built, so every worker computes the
   same states a sequential run does. *)
let test_parallel_fold_from_shared_root () =
  let g = Topology.abilene () in
  let m = G.num_links g in
  let mk () = make_state g ~seed:21 in
  let rng = Prng.create 22 in
  let seqs =
    Array.init 24 (fun _ -> List.init 3 (fun _ -> Prng.int rng m))
  in
  let fold_all st = Array.map (List.fold_left (fail_bidir g) st) seqs in
  let expected = fold_all (mk ()) in
  (* A fresh root, shared by all workers. *)
  let root = mk () in
  let got =
    R3_util.Parallel.map ~domains:4
      (fun links -> List.fold_left (fail_bidir g) root links)
      seqs
  in
  Array.iteri
    (fun i want ->
      if not (Reconfig.states_bit_identical want got.(i)) then
        Alcotest.failf "parallel fold %d diverged from sequential" i)
    expected

(* A failure chain longer than the overlay cap exercises index
   compaction (the child drops the inherited index and rebuilds from its
   own rows); results must stay bit-identical to the dense reference. *)
let test_long_chain_identity () =
  let g =
    Topology.random ~seed:23 ~nodes:16 ~undirected_links:30
      ~capacities:[ (10.0, 1.0) ]
      ()
  in
  let m = G.num_links g in
  let rng = Prng.create 24 in
  let links = List.init 24 (fun _ -> Prng.int rng m) in
  let st = make_state g ~seed:11 in
  check_reference "long chain"
    (Fold_ref.fail (Fold_ref.of_state st) links)
    (List.fold_left (fun st e -> Reconfig.apply_failures st [ e ]) st links)

(* ---- native-storage bit comparison ---- *)

(* The reference Routing.bit_identical must agree with: the densified
   image compared entry by entry through Int64.bits_of_float. *)
let densified_bit_identical a b =
  let bits r =
    Array.map (Array.map Int64.bits_of_float) (Routing.to_dense_matrix r)
  in
  bits a = bits b

(* Random routings whose rows hold explicit [+0.0], [-0.0] and NaN
   entries, and payloads shared copy-on-write with the routing they are
   compared to. The second routing either shares a row, re-stores the
   same dense image (with different explicit zeros), or perturbs one
   entry — including [+0.0] <-> [-0.0] sign flips, which only bits can
   see. *)
let test_native_bit_compare () =
  let rng = Prng.create 7 in
  let g = Topology.abilene () in
  let m = G.num_links g in
  let pool = [| -0.0; 1.0; 0.25; -0.5; 1e-300; Float.nan |] in
  let image () =
    Array.init m (fun _ -> if Prng.int rng 5 = 0 then Prng.choose rng pool else 0.0)
  in
  let storage img =
    let idx = ref [] and v = ref [] in
    for e = m - 1 downto 0 do
      let x = img.(e) in
      let explicit_zero = Prng.int rng 8 = 0 in
      if Int64.bits_of_float x <> 0L || explicit_zero then begin
        idx := e :: !idx;
        v := x :: !v
      end
    done;
    let idx = Array.of_list !idx and v = Array.of_list !v in
    Rowvec.of_sorted idx v (Array.length idx)
  in
  let perturb img =
    let img = Array.copy img in
    let e = Prng.int rng m in
    img.(e) <-
      (if Int64.bits_of_float img.(e) = 0L then Prng.choose rng pool
       else if Int64.bits_of_float img.(e) = Int64.bits_of_float (-0.0) then 0.0
       else if Prng.bool rng 0.5 then -0.0
       else 0.0);
    img
  in
  let same = ref 0 and differ = ref 0 in
  for _ = 1 to 600 do
    let nk = 1 + Prng.int rng 6 in
    let pairs = Array.make nk (0, 1) in
    let a = Routing.create g ~pairs in
    let imgs = Array.init nk (fun _ -> image ()) in
    Array.iteri (fun k img -> Routing.set_row_storage a k (storage img)) imgs;
    let b = Routing.copy a in
    Array.iteri
      (fun k img ->
        match Prng.int rng 10 with
        | 0 | 1 | 2 -> () (* payload stays shared with [a] *)
        | 3 -> Routing.set_row_storage b k (storage (perturb img))
        | _ -> Routing.set_row_storage b k (storage img))
      imgs;
    let expect = densified_bit_identical a b in
    if expect then incr same else incr differ;
    Alcotest.(check bool) "native compare = densified compare" expect
      (Routing.bit_identical a b);
    Alcotest.(check bool) "symmetric" expect (Routing.bit_identical b a)
  done;
  Alcotest.(check bool) "both outcomes exercised" true (!same > 50 && !differ > 50);
  (* commodity count is part of the image *)
  let a = Routing.create g ~pairs:[| (0, 1) |] in
  let b = Routing.create g ~pairs:[| (0, 1); (0, 1) |] in
  Alcotest.(check bool) "row count differs" false (Routing.bit_identical a b)

let suite =
  [
    Alcotest.test_case "rowvec basics" `Quick test_rowvec_basics;
    Alcotest.test_case "rowvec dense round trip" `Quick
      test_rowvec_dense_round_trip;
    Alcotest.test_case "rowvec axpy aliasing" `Quick test_rowvec_axpy_aliasing;
    Alcotest.test_case "rowvec scatter and dot" `Quick
      test_rowvec_scatter_and_dot;
    Alcotest.test_case "rowvec merged matches dense" `Quick
      test_rowvec_merged_matches_dense;
    Alcotest.test_case "backend bit-identity abilene" `Quick
      test_backend_identity_abilene;
    Alcotest.test_case "backend bit-identity random" `Quick
      test_backend_identity_random;
    Alcotest.test_case "cow isolation" `Quick test_cow_isolation;
    Alcotest.test_case "parallel fold from shared root" `Quick
      test_parallel_fold_from_shared_root;
    Alcotest.test_case "long chain identity" `Quick test_long_chain_identity;
    Alcotest.test_case "native bit compare = densified" `Quick
      test_native_bit_compare;
  ]
