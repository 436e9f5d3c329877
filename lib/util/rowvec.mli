(** Shared sparse-row numeric kernels.

    One sorted-index sparse row (CSR-style: parallel [idx]/[v] arrays with
    an explicit length), used both by the simplex tableau
    ([R3_lp.Sparse], drop tolerance 1e-14) and by the routing storage
    substrate ([R3_net.Routing], drop tolerance exactly [0.0] so a row's
    dense image matches a dense-matrix computation bit for bit).

    Every kernel takes the drop tolerance as an explicit [?drop]
    parameter, defaulting to [0.0]: an entry is {e kept} iff
    [Float.abs x > drop], so with the default only exact (signed) zeros
    are structural. All iteration is in strictly increasing index order,
    which is what makes sparse arithmetic reproduce dense left-to-right
    loops bit for bit. *)

type t

(** [create ?cap ()] is an empty row with initial capacity [cap]. *)
val create : ?cap:int -> unit -> t

(** [of_pairs ?drop idx v] builds a row from parallel index/value arrays.
    Indices need not be sorted or unique: duplicates are summed, entries
    with [|x| <= drop] removed. The input arrays are not retained. *)
val of_pairs : ?drop:float -> int array -> float array -> t

(** [of_dense ?drop a] keeps the entries of [a] with [|x| > drop]
    (default: every nonzero, dropping exact zeros of either sign). *)
val of_dense : ?drop:float -> float array -> t

(** [of_sorted idx v n] wraps the first [n] entries of the given parallel
    arrays as a row, {b taking ownership} of both arrays (they must not be
    mutated afterwards). The caller guarantees indices are strictly
    increasing and values already satisfy its drop policy — nothing is
    checked. Single-allocation constructor for merge kernels that build a
    row in one pass. *)
val of_sorted : int array -> float array -> int -> t

(** [to_dense width r] scatters into a fresh zero-filled array. *)
val to_dense : int -> t -> float array

val copy : t -> t

(** Number of stored entries. *)
val nnz : t -> int

(** [get r j] is the coefficient at index [j] (0 if absent); O(log nnz). *)
val get : t -> int -> float

(** [set ?drop r j x] writes coefficient [x] at index [j], inserting or
    removing the entry as needed. O(nnz) worst case on insert; O(1)
    amortized when indices arrive in increasing order. *)
val set : ?drop:float -> t -> int -> float -> unit

(** Remove the entry at index [j] (exact structural zero). *)
val clear : t -> int -> unit

(** [scale ?drop r k] multiplies every entry by [k], dropping entries
    whose magnitude falls to [drop] or below. *)
val scale : ?drop:float -> t -> float -> unit

(** Reusable merge buffer for {!axpy}; never share one across domains. *)
type scratch

val scratch : unit -> scratch

(** [axpy ?drop ?scratch ~y ~x factor] computes [y := y - factor * x] by
    merging the two sorted nonzero streams; entries with magnitude at or
    below [drop] are removed. [x] is unchanged. With [?scratch] the merge
    output buffer is recycled between calls (swapped against [y]'s old
    storage), eliminating the per-call allocation on hot paths. Safe when
    [y == x] (the merge writes into a separate buffer). Each merged entry
    is computed as [y_j -. (factor *. x_j)], so calling with
    [factor = -.c] reproduces a dense [y_j +. c *. x_j] bit for bit. *)
val axpy : ?drop:float -> ?scratch:scratch -> y:t -> x:t -> float -> unit

(** [merged ?drop ~skip ~y ~x factor] is a fresh row [y + factor * x]
    with any entry at index [skip] removed; [y] and [x] are unchanged
    (copy-on-write companion to {!axpy}). Entries are produced in
    ascending index order: a [y]-only entry is copied verbatim, an
    [x]-only entry contributes [factor *. x_j], a collision contributes
    [y_j +. (factor *. x_j)]; results with [|value| <= drop] are
    dropped. With the default [drop = 0.0] this reproduces a dense
    in-place [y_j +. factor *. x_j] loop bit for bit (provided [x]
    stores no [-0.0]). Single allocation, exactly sized. *)
val merged : ?drop:float -> skip:int -> y:t -> x:t -> float -> t

(** [scatter_add ?scale r ~into] adds [scale *. x] (default [scale = 1.0])
    into [into.(j)] for every stored entry, in increasing index order. *)
val scatter_add : ?scale:float -> t -> into:float array -> unit

(** [iter f r] applies [f j v] to each entry in increasing index order. *)
val iter : (int -> float -> unit) -> t -> unit

val fold : (int -> float -> 'a -> 'a) -> t -> 'a -> 'a

(** [dot r dense] is [sum_j r_j * dense.(j)]; O(nnz). *)
val dot : t -> float array -> float

(** [raw r] exposes [(idx, v, n)]: the first [n] entries of the parallel
    arrays are the stored entries. Read-only view for allocation-free hot
    loops; invalidated by any mutating operation. *)
val raw : t -> int array * float array * int
