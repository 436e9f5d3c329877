(** Dense-matrix reference for the R3 failure fold (Section 3.2,
    equations (8)–(10)).

    A second, deliberately plain implementation of what
    {!R3_core.Reconfig} computes on the sparse routing substrate: every
    row is a [float array] over all links, every kernel a straight loop,
    and nothing is shared between states. After the same {!fail} and
    {!recover} calls, {!R3_net.Routing.to_dense_matrix} of a state's base
    and protection routings must equal the reference matrices bit for bit
    ([Int64.bits_of_float] per entry). The fuzz oracle
    [routing-fold-reference] and the substrate tests hold the substrate
    to that. *)

type t

(** The reference for [st]'s pristine routings with every link up. *)
val of_state : R3_core.Reconfig.state -> t

(** [fail t links] folds each directed link of [links] not already
    failed, left to right: rescale its detour from the current protection
    row (8) with [Config.default.rescale_tol], then update every base and
    protection row with a positive entry on it (9)/(10). The failed
    link's own protection row becomes the detour. *)
val fail : t -> R3_net.Graph.link list -> t

(** [recover t links] brings [links] back up. When at least one of them
    was failed, the remaining failed links are refolded from the pristine
    matrices in canonical order (physical representative ascending, each
    before its reverse); otherwise [t] is returned unchanged. *)
val recover : t -> R3_net.Graph.link list -> t

(** [mismatch t st] is [None] when [st] has the same failed set as [t]
    and its routings' dense images equal the reference bit for bit, and
    otherwise a description of the first difference. *)
val mismatch : t -> R3_core.Reconfig.state -> string option
