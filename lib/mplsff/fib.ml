module G = R3_net.Graph
module Routing = R3_net.Routing

type nhlfe = { out_link : G.link; ratio : float }

type fwd = { label : int; nhlfes : nhlfe array }

type router_fib = { router : G.node; ilm : (int, fwd) Hashtbl.t }

type t = {
  graph : G.t;
  fibs : router_fib array;
  protected_links : G.link array;
}

let label_base = 100

let label_of_link e = label_base + e

let link_of_label l = l - label_base

(* One router's whole ILM from (that router's view of) the protection
   routing — the unit of work a router redoes locally when a failure or
   recovery notification arrives. Shared by the full rebuild and the
   per-router incremental update so the two can never drift. *)
let router_ilm g p router =
  let ilm = Hashtbl.create 16 in
  let out = G.out_links g router in
  let cand = Array.make (Array.length out) 0 in
  let share = Array.make (Array.length out) 0.0 in
  for l = 0 to G.num_links g - 1 do
    (* Ratios over outgoing links; at the protected link's head the link
       itself is excluded (it is the one being bypassed). Candidates are
       summed in out-link order. *)
    let k = ref 0 and total = ref 0.0 in
    for i = 0 to Array.length out - 1 do
      let e = out.(i) in
      if e <> l then begin
        let x = Routing.get p l e in
        if x > 1e-12 then begin
          cand.(!k) <- e;
          share.(!k) <- x;
          total := !total +. x;
          incr k
        end
      end
    done;
    if !total > 1e-12 then begin
      let label = label_of_link l in
      let nhlfes =
        Array.init !k (fun i -> { out_link = cand.(i); ratio = share.(i) /. !total })
      in
      Hashtbl.replace ilm label { label; nhlfes }
    end
  done;
  ilm

let of_protection g p =
  if Routing.num_commodities p <> G.num_links g then
    invalid_arg "Fib.of_protection: protection must cover every link";
  let n = G.num_nodes g in
  let fibs = Array.init n (fun router -> { router; ilm = router_ilm g p router }) in
  { graph = g; fibs; protected_links = Array.init (G.num_links g) (fun e -> e) }

let update t p = of_protection t.graph p

let router_fib g p router =
  if Routing.num_commodities p <> G.num_links g then
    invalid_arg "Fib.router_fib: protection must cover every link";
  { router; ilm = router_ilm g p router }

let set_router t rf =
  let fibs = Array.copy t.fibs in
  fibs.(rf.router) <- rf;
  { t with fibs }

let update_router t ~router p = set_router t (router_fib t.graph p router)

let fwd_equal a b =
  a.label = b.label
  && Array.length a.nhlfes = Array.length b.nhlfes
  && Array.for_all2
       (fun x y ->
         x.out_link = y.out_link
         && Int64.equal (Int64.bits_of_float x.ratio) (Int64.bits_of_float y.ratio))
       a.nhlfes b.nhlfes

let router_fib_equal a b =
  a.router = b.router
  && Hashtbl.length a.ilm = Hashtbl.length b.ilm
  && Hashtbl.fold
       (fun label fwd acc ->
         acc
         &&
         match Hashtbl.find_opt b.ilm label with
         | Some fwd' -> fwd_equal fwd fwd'
         | None -> false)
       a.ilm true

let equal a b =
  Array.length a.fibs = Array.length b.fibs
  && Array.for_all2 router_fib_equal a.fibs b.fibs

let max_table_sizes t =
  Array.fold_left
    (fun (best_ilm, best_nh) fib ->
      let ilm = Hashtbl.length fib.ilm in
      let nh =
        Hashtbl.fold (fun _ fwd acc -> acc + Array.length fwd.nhlfes) fib.ilm 0
      in
      (Int.max best_ilm ilm, Int.max best_nh nh))
    (0, 0) t.fibs
