(** Stabilized Dantzig-Wolfe / Benders cutting-plane master.

    The sibling of the EPF engine over the same abstraction: blocks are
    visible only through {!Vod_epf.Engine.oracle}s, coupling rows carry
    capacities, and the result is an {!Vod_epf.Engine.outcome}. Instead
    of potential-function price updates, each pass solves a restricted
    master LP over the per-block columns generated so far — every block
    keeps its own convexity row, {!Vod_lp.Simplex} solves the master
    exactly and exposes its dual prices — and queries the oracles at a
    stabilized price vector between an incumbent center and the
    master's duals (in-out stabilization with Wentges-style smoothing:
    the center drifts toward the running dual average on null steps).
    The master LP carries only the coupling rows the column pool can
    fill ({!fillable_rows}), each with an explicit relative-overflow
    variable priced at a penalty derived from the average initial block
    objective, which keeps the master feasible and boxes its duals at
    [penalty / capacity]; the penalty escalates when the fractional
    violation stops improving. Zero-weight columns are pruned each pass
    (fresh ones are spared once), so the tableau stays roughly
    (fillable rows + blocks) square.

    Rounding starts from the fractional mix's row usage and snaps one
    block at a time to its cheapest candidate under penalty-priced
    marginal overflow, polishes with congestion-priced fresh oracle
    points, then runs a targeted repair loop that evicts from the worst
    row the block whose cheapest avoiding point costs least. A block
    evicted from a row never moves back into it: its later candidates
    price every row it left like the worst row and must avoid them.

    The input check, bound, violation and outcome are the engine's shared
    certificate ({!Vod_epf.Engine.lagrangian_bound} and its siblings);
    the rounding above is the master's own.

    Determinism: cut generation and lower-bound sweeps fan out through
    {!Vod_util.Pool} with in-order combination, the master LP and the
    rounding sweep are sequential — the outcome is bit-identical at any
    [jobs] count. *)

(** [fillable_rows ~capacities blocks] lists, in increasing order, the
    coupling rows the restricted master LP carries, where [blocks.(b)]
    holds the usages of block [b]'s columns. Row [i] is kept when its
    reach — the sum over blocks of the block's largest column usage on
    [i], 0 when none is positive, added in block order — exceeds
    [(1 - 1e-6) *. capacities.(i)]. No point of the master puts more
    than the reach on a row, so a dropped row holds strictly at every
    vertex the simplex visits and its slack stays basic: the LP over
    the kept rows makes the same pivots on the same operands, and its
    weights, objective and kept-row duals are bit-identical to the LP
    over every touched row (barring a ratio-test tie within the
    simplex's 1e-9 tolerance, which the margin rules out unless a
    pivot-column entry on the row reaches the order of 1000 times its
    capacity). One sweep over the pool's nonzeros. *)
val fillable_rows :
  capacities:float array -> Vod_epf.Sparse.t list array -> int array

(** [solve ?initial ~initial_prices ~max_passes ~jobs ~capacities
    oracles] runs the stabilized column-generation loop until the
    fractional master point is feasible within {!Vod_epf.Engine.epsilon}
    and either its Lagrangian gap is below that tolerance or the
    penalized master value has stopped moving (or [max_passes] master
    iterations, one cut round each), then rounds each block to a single
    integral oracle point. [jobs] is the pool width for cut generation
    and bound sweeps ([0] = process default). [initial] seeds the column
    pool with one warm-start point per block (the incumbent placement);
    [initial_prices] seeds the incumbent price vector, one price per
    capacity (zeros price nothing in advance). The outcome's [lower_bound] is the best Lagrangian
    bound over the passes' query prices (limited by the oracles' own
    dual-ascent tightness); [pre_round_*] report the final fractional
    master combination. Raises [Invalid_argument] as
    {!Vod_epf.Engine.check_inputs} does, or when [initial_prices] is not
    one price per capacity.

    The tuning is fixed: in-weight 0.5 (shrink 0.7 / grow 1.3, cap 0.9),
    overflow penalty 10x the average initial block objective, at most 4
    polish sweeps. *)
val solve :
  ?initial:'a Vod_epf.Engine.point array ->
  initial_prices:float array ->
  max_passes:int ->
  jobs:int ->
  capacities:float array ->
  'a Vod_epf.Engine.oracle array ->
  'a Vod_epf.Engine.outcome
