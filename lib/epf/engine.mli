(** Exponential-potential-function / Lagrangian decomposition engine
    (the paper's Appendix, Algorithm 1), generic over block oracles.

    The engine solves
      min c z  s.t.  A z <= b,  z in F^1 x ... x F^K
    where each block polytope F^k is only accessible through two oracles:
    one returning the block's best point under given prices, one returning
    a valid lower bound on the priced block minimum. Steps form convex
    combinations of oracle points, so iterates stay inside the block
    polytopes by construction; the reported [lower_bound] is a genuine
    Lagrangian bound, so the final optimality gap is trustworthy. Each
    block's combination is a {!Combo.t}, a flat column store updated in
    place. *)

type 'a point = 'a Combo.point = {
  obj : float;        (** objective contribution c^k z^k *)
  usage : Sparse.t;   (** coupling-row footprint A^k z^k *)
  data : 'a;          (** opaque payload (e.g. a UFL solution) *)
}

type 'a oracle = {
  optimize : obj_price:float -> row_price:float array -> 'a point;
  optimize_strong : obj_price:float -> row_price:float array -> 'a point;
      (** slower, higher-quality variant used by rounding and polish; may
          equal [optimize] *)
  lower_bound : row_price:float array -> float;
  initial : unit -> 'a point;
      (** a sane starting point whose objective sets the problem scale —
          for placement blocks, the best single-facility solution *)
}

type params = {
  max_passes : int;
  seed : int;
  shuffle : bool;
      (** re-randomize the block order every pass (the paper credits this
          with a 40x reduction in pass count vs a fixed order) *)
  jobs : int;
      (** width of the domain pool used for the block-parallel phases
          (initial points, Lagrangian lower-bound sweeps, rounding /
          polish candidate oracles); [0] = the process default
          ({!Vod_util.Pool.default_jobs}). The price-update passes stay
          sequential (Gauss-Seidel). Every result — objective, lower
          bound, violation, rounded placement — is bit-identical at any
          job count for a fixed [seed]. *)
}

(** 60 passes, seed 1, shuffling on, jobs = 0 (process default). *)
val default_params : params

(** The feasibility/optimality tolerance, 0.01 (the paper's 1%). The
    engine's other tuning is fixed too: exponent factor 1, dual
    smoothing 0.5, 24 line-search iterations and 2 post-rounding polish
    sweeps, in which any block may snap to a fresh oracle point that
    strictly decreases the potential. *)
val epsilon : float

type 'a outcome = {
  combos : 'a Combo.t array;
      (** final convex combination per block; one column each after
          rounding *)
  objective : float;
  lower_bound : float;      (** valid Lagrangian lower bound on OPT *)
  max_violation : float;    (** {!max_violation} of [row_usage] *)
  row_usage : float array;  (** aggregate usage per coupling row *)
  passes : int;
  pre_round_objective : float;
      (** fractional LP objective before the rounding pass *)
  pre_round_violation : float;
      (** max relative violation before the rounding pass *)
  history : (float * float * float) array;
      (** per-pass (objective, lower bound, max violation) convergence
          trace, for diagnostics and the ablation benches *)
}

(** {1 The shared certificate}

    This engine, the Benders master ([Vod_decomp.Master]) and the
    simplex reference check their inputs, compute their bound and
    measure their violation with these values. Rounding stays per
    solver. *)

(** Raises [Invalid_argument] on a NaN or infinite capacity, a nonpositive
    capacity, an empty block list, or an [initial] array whose length
    differs from the block list's, in that order. *)
val check_inputs :
  ?initial:'a point array -> capacities:float array -> 'a oracle array -> unit

(** [lagrangian_bound ~pool ~oracles ~capacities lambda] is LR(lambda) =
    sum_k min (c + lambda A) z^k - lambda . b (Algorithm 1, step 15),
    each block minimum taken from its oracle's [lower_bound]: a valid
    lower bound for any [lambda >= 0]. The block bounds run on [pool],
    are summed in block order and lambda_i b_i is then subtracted row by
    row, so the value is bit-identical at any job count. *)
val lagrangian_bound :
  pool:Vod_util.Pool.t -> oracles:'a oracle array -> capacities:float array ->
  float array -> float

(** {1 The bound ceiling}

    {!solve} skips a bound sweep that cannot raise its bound. For
    [lambda >= 0], each block's [lower_bound] is at most its priced cost
    (c + lambda A) x at any point x of the block, so
    [lagrangian_bound lambda] is at most U(lambda) =
    sum_k min_x (c + lambda A) x - lambda . b, the minimum taken over
    the points the engine holds for block k: its combination's columns
    and its optimum at zero row prices. *)

(** Each block's [optimize ~obj_price:1.0] point at zero row prices,
    kept flat: one objective per block and one usage arena, without
    payloads. {!solve} builds them once, in parallel on its pool. *)
type zero_points

(** [zero_price_points ~pool ~n_rows oracles]: the zero price vector has
    [n_rows] entries. *)
val zero_price_points :
  pool:Vod_util.Pool.t -> n_rows:int -> 'a oracle array -> zero_points

(** [bound_ceiling zero combos ~capacities lambda] is [(u, margin)]: u
    is U(lambda) over the points of [zero] and the columns of [combos]
    (block k's of both), and margin is 1e-9 times the sum of |U_k| and
    lambda . b, which covers the rounding of both u and the bound. The
    sums run in block and row order. A NaN priced cost makes u NaN, and
    {!solve} sweeps whenever u + margin < its bound is false. *)
val bound_ceiling :
  zero_points -> 'a Combo.t array -> capacities:float array -> float array ->
  float * float

(** max(0, max_i usage_i / capacities_i - 1), the maximum relative
    coupling violation (0 with no rows). Allocates only its result. *)
val max_violation : capacities:float array -> float array -> float

(** The outcome of one integral point per block: one column per block, the
    objective and the row usage summed in block order, and their
    {!max_violation}. The other fields are passed through. *)
val integral_outcome :
  capacities:float array -> lower_bound:float -> passes:int ->
  pre_round_objective:float -> pre_round_violation:float ->
  history:(float * float * float) array -> 'a point array -> 'a outcome

(** [solve ?round ?initial p ~capacities ~oracles] runs randomized
    block-descent passes until epsilon-feasible and epsilon-optimal (or
    [max_passes]), stabilizes the iterate in three more passes, sweeps
    a grid of dual scalings for a better bound and then — unless
    [round:false], which leaves the fractional iterate for tests to
    read — snaps every fractional block to a single integral oracle
    point (paper Sec. V-D). [initial], when given, supplies one
    starting point per block (same order and length as [oracles]) in
    place of the per-block [oracle.initial] sweep — the warm-start entry
    used by the online re-placement daemon to begin the descent from
    the incumbent placement. Raises [Invalid_argument] as
    {!check_inputs} does. *)
val solve :
  ?round:bool ->
  ?initial:'a point array ->
  params ->
  capacities:float array ->
  oracles:'a oracle array ->
  'a outcome

(** [feasible p ~capacities ~oracles] is the FEAS probe (paper Fig. 11,
    Table IV, Fig. 13): the same randomized passes with no objective
    row, so the potential only pushes the coupling rows below capacity.
    It computes no bound and rounds nothing. [true] as soon as a pass
    ends epsilon-feasible; [false] when [max_passes] passes end without
    one, which may also mean the passes ran out. Opens its own pool of
    [jobs] domains; the answer is the same at any job count. Raises
    [Invalid_argument] as {!check_inputs} does. *)
val feasible : params -> capacities:float array -> oracles:'a oracle array -> bool

(** Linear-extension exp used by the potential (exposed for tests). *)
val safe_exp : float -> float
