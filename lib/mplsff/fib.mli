(** MPLS-ff forwarding information base (Section 4.2).

    Standard MPLS maps an incoming label through the ILM to a single
    forwarding instruction. MPLS-ff extends the FWD instruction to hold
    {e multiple} NHLFEs, each with a next-hop splitting ratio; a router
    hashes each flow onto one NHLFE. One protection label is allocated per
    protected link, network-wide; the label's NHLFE ratios at router [v]
    encode [p_l(v, j)]. *)

type nhlfe = {
  out_link : R3_net.Graph.link;
  ratio : float;  (** next-hop splitting ratio, normalized per router *)
}

type fwd = { label : int; nhlfes : nhlfe array }

type router_fib = {
  router : R3_net.Graph.node;
  ilm : (int, fwd) Hashtbl.t;  (** incoming label map *)
}

type t = {
  graph : R3_net.Graph.t;
  fibs : router_fib array;  (** indexed by router id *)
  protected_links : R3_net.Graph.link array;
}

(** Protection label of a link (stable, network-wide). *)
val label_of_link : R3_net.Graph.link -> int

val link_of_label : int -> R3_net.Graph.link

(** Build all routers' ILM/NHLFE state from a protection routing: at every
    router on [p_l]'s support (plus the head of [l]), install the label of
    [l] with per-next-hop ratios proportional to [p_l(v, j)], excluding the
    protected link itself at its head (the paper's
    [p_l(i,j) / sum_{j'} p_l(i,j')] with [(i,j') <> l]). Links whose
    protection routes entirely over themselves (stubs) get no entries. *)
val of_protection : R3_net.Graph.t -> R3_net.Routing.t -> t

(** Re-derive ratios after failures from a reconfigured protection routing
    (what routers do locally after each notification). *)
val update : t -> R3_net.Routing.t -> t

(** [update_router t ~router p] re-derives {e one} router's ILM from that
    router's (possibly stale) view [p] of the protection routing — the
    local FIB step the online runtime applies when a notification reaches
    [router]. Other routers' tables are shared with [t] untouched, so
    applying per-router updates in {e any} order, once every router has
    seen the final protection routing, lands on the same FIB as a full
    {!update} (tested in [test/test_online.ml]). *)
val update_router : t -> router:R3_net.Graph.node -> R3_net.Routing.t -> t

(** [router_fib g p router] is [router]'s ILM derived from the protection
    routing [p] — the single ILM builder behind {!of_protection} and
    {!update_router}. A pure function of [p] restricted to the router's
    out-links, so callers may build it once per protection state and
    install it repeatedly with {!set_router}. *)
val router_fib :
  R3_net.Graph.t -> R3_net.Routing.t -> R3_net.Graph.node -> router_fib

(** [set_router t rf] installs [rf] as router [rf.router]'s table; other
    routers' tables are shared with [t]. *)
val set_router : t -> router_fib -> t

(** Structural equality of the forwarding state: same routers, same ILM
    entries, bit-identical splitting ratios. *)
val equal : t -> t -> bool

(** Total entries across routers: [(ilm_entries, nhlfe_entries)] of the
    router with the largest tables — the per-router figure of Table 3. *)
val max_table_sizes : t -> int * int
