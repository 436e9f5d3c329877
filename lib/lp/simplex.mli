(** Two-phase primal simplex over standard nonnegative variables.

    This is the numerical core under {!Problem}; it solves

    {v  min c . x   s.t.  A x (<= | = | >=) b,   x >= 0  v}

    Phase 1 drives artificial variables to zero starting from a slack basis;
    phase 2 optimizes the true objective. Devex pricing with a Bland
    fallback after a run of degenerate pivots provides anti-cycling. Rows are
    equilibrated (scaled by their max absolute coefficient) for numerical
    robustness.

    Two interchangeable backends share this pivoting discipline:

    - [`Revised] holds the basis as a sparse LU factorization ({!Lu})
      instead of a pivoted tableau: each iteration is one BTRAN (pivot
      row), one FTRAN (entering column) and an eta-file append, so
      per-pivot work scales with the touched nonzeros, not the total
      column count. Pricing is Devex over a cached candidate list. This
      is the fast path for large constraint-generation workloads.
    - [`Sparse] (default) keeps every tableau row as a {!Sparse.t}; pivots,
      cost-row eliminations and Devex updates run in O(nnz) rather than
      O(columns), but every pivot still rewrites all rows. It is also
      where a [`Revised] solve lands when its basis turns out
      numerically singular.

    Both backends return the same statuses and (within numerical tolerance)
    the same objectives. *)

type cmp = Le | Ge | Eq

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit

type outcome = {
  status : status;
  x : float array;  (** primal values (length = num variables); zeros unless [Optimal] *)
  objective : float;  (** c . x at termination *)
  pivots : int;  (** total pivot count across both phases *)
}

type backend = [ `Sparse | `Revised ]

(** [solve ~obj ~rows ~cmps ~rhs] where [rows.(i)] is the sparse row
    [(indices, coefficients)] of constraint [i]. All variable indices must
    be in [0, Array.length obj). [max_pivots] caps total pivots.
    [backend] selects the tableau representation (default [`Sparse]). *)
val solve :
  ?backend:backend ->
  ?max_pivots:int ->
  obj:float array ->
  rows:(int array * float array) array ->
  cmps:cmp array ->
  rhs:float array ->
  unit ->
  outcome

(** Warm-startable solver handle.

    {!Session.create} runs the full two-phase solve once; {!Session.add_row}
    then appends constraints, and {!Session.resolve} restores primal
    feasibility with dual-simplex pivots instead of re-solving from
    scratch - the classic cutting-plane work-loop. On the [`Sparse]
    tableau engine each new row is expressed over the current basis and
    given its own slack; on [`Revised] the appended row keeps its
    original coefficients and the carried-over LU factorization is
    refreshed at the next {!resolve}. Pivot counts accumulate across the
    session, so [pivots (resolve s)] is the total effort since
    [create]. *)
module Session : sig
  type t

  (** Build the solver state and run the initial two-phase solve; the
      result is available via {!outcome}. [backend] picks the engine
      (default [`Sparse]) - a
      [`Revised] session whose basis turns out numerically singular
      falls back to the tableau engine transparently. [max_pivots] is
      the pivot budget for the initial solve and for each subsequent
      {!resolve}. *)
  val create :
    ?backend:backend ->
    ?max_pivots:int ->
    obj:float array ->
    rows:(int array * float array) array ->
    cmps:cmp array ->
    rhs:float array ->
    unit ->
    t

  (** Result of the last (re-)solve. *)
  val outcome : t -> outcome

  (** [add_row s (idx, coef) cmp rhs] appends a constraint over existing
      variables. [Eq] rows are added as a [Le]/[Ge] pair. Takes effect at
      the next {!resolve}. *)
  val add_row : t -> int array * float array -> cmp -> float -> unit

  (** Re-solve after {!add_row}s, reusing the current basis. Returns
      [Iteration_limit] when the warm state is unusable (initial solve was
      not optimal, or the dual repair exhausted its budget); callers should
      then fall back to a cold solve. *)
  val resolve : t -> outcome

  (** Cumulative pivots since [create]. *)
  val pivots : t -> int

  (** Whether the session can warm-restart (last solve ended [Optimal]). *)
  val warm_ok : t -> bool

  (** Basis refactorizations so far; 0 on the tableau engine. *)
  val refactorizations : t -> int
end
