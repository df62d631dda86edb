(* The exponential potential function (EPF) / Lagrangian decomposition
   engine — the paper's Appendix, Algorithm 1.

   The engine is generic: a *block* is anything with an [optimize] oracle
   (return the block's best point under given prices) and a [lower_bound]
   oracle (a valid lower bound on the block minimum under given prices).
   For the VoD placement problem, blocks are per-video fractional UFL
   subproblems (built in [Vod_placement.Blocks]); the engine never sees
   videos, disks or links, only abstract coupling rows.

   State per block is a convex combination of oracle points — steps
   z^k <- (1-tau) z^k + tau zhat only ever mix oracle outputs, so z^k stays
   in the block polytope by construction. Each block's combination is a
   flat column store ([Combo]): objective, weight and payload arrays and
   one usage arena, updated in place, plus the block's aggregate usage.
   Its order rules (the new column first, a stable weight sort above 20
   columns, folds in column order, extraction of the heaviest column,
   the first on ties) make its arithmetic bit-identical to a
   (point, weight) list's, which test/test_epf.ml keeps as the
   reference. Aggregate row usage and the dense price vector are
   maintained incrementally, which is what makes a full pass linear in
   total block support size (the paper's Table III linear scaling). *)

type 'a point = 'a Combo.point = {
  obj : float;         (* objective contribution c^k z^k *)
  usage : Sparse.t;    (* coupling-row footprint A^k z^k *)
  data : 'a;           (* opaque payload (e.g. the UFL solution) *)
}

type 'a oracle = {
  optimize : obj_price:float -> row_price:float array -> 'a point;
      (* best block point under priced cost obj_price*c + row_price . A *)
  optimize_strong : obj_price:float -> row_price:float array -> 'a point;
      (* slower, higher-quality variant used by rounding and polish; may
         equal [optimize] *)
  lower_bound : row_price:float array -> float;
      (* valid lower bound on min over the block polytope of
         c z + row_price . A z  (objective price normalized to 1) *)
  initial : unit -> 'a point;
      (* a sane starting point whose objective sets the problem's scale;
         for placement blocks, the best single-facility solution *)
}

type params = {
  max_passes : int;
  seed : int;
  shuffle : bool;            (* fresh random block order each pass; the
                                paper reports 40x fewer passes vs fixed *)
  jobs : int;                (* domain-pool width for the parallel phases;
                                0 = the process default (--jobs / hardware) *)
}

let default_params = { max_passes = 60; seed = 1; shuffle = true; jobs = 0 }

(* Fixed tuning, the same for every solve. *)
let epsilon = 0.01            (* target tolerance (paper: 0.01) *)
let gamma = 1.0               (* exponent factor, ~1 *)
let rho = 0.5                 (* dual smoothing in [0,1) *)
let line_search_iters = 24
let polish_passes = 2         (* post-rounding integer improvement sweeps *)

type 'a outcome = {
  combos : 'a Combo.t array;  (* final convex combination per block *)
  objective : float;
  lower_bound : float;
  max_violation : float;     (* max relative coupling violation *)
  row_usage : float array;
  passes : int;
  pre_round_objective : float;   (* fractional LP objective before rounding *)
  pre_round_violation : float;   (* max relative violation before rounding *)
  history : (float * float * float) array;
      (* per-pass (objective, lower bound, max violation) trace *)
}

(* The certificate shared by every solver (see engine.mli). *)

let check_inputs ?initial ~capacities oracles =
  (* NaN fails the [<= 0.] test and +inf passes it, but either one breaks
     the priced block costs and lambda_i * b_i. *)
  if Array.exists (fun b -> Float.is_nan b || b = Float.infinity) capacities then
    invalid_arg "Engine: capacities must be finite, not NaN or infinity";
  if Array.exists (fun b -> b <= 0.0) capacities then
    invalid_arg "Engine: capacities must be positive";
  if Array.length oracles = 0 then invalid_arg "Engine: no blocks";
  match initial with
  | Some points when Array.length points <> Array.length oracles ->
      invalid_arg "Engine: initial points/oracles length mismatch"
  | _ -> ()

(* Algorithm 1, step 15. Block bounds fan out across the pool and fold in
   block order; lambda . b is then subtracted row by row in a one-slot
   float array, updated unboxed (a ref compiles the same, but the
   alloc-in-hot lint, which reaches this from Master.solve, flags it). *)
let lagrangian_bound ~pool ~(oracles : _ oracle array) ~capacities lambda =
  let bound =
    [|
      Vod_util.Pool.map_reduce pool ~n:(Array.length oracles)
        ~map:(fun k -> oracles.(k).lower_bound ~row_price:lambda)
        ~init:0.0 ~combine:( +. );
    |]
  in
  for i = 0 to Array.length capacities - 1 do
    bound.(0) <- bound.(0) -. (lambda.(i) *. capacities.(i))
  done;
  bound.(0)

(* The bound ceiling (see engine.mli and DESIGN.md). Each block's
   optimum at zero row prices, stored flat like a [Combo]'s columns:
   block k's objective is [objs.(k)] and its usage the arena slice
   [off.(k), off.(k + 1)). No payloads are kept. *)
type zero_points = {
  objs : float array;
  off : int array;
  rows : int array;
  vals : float array;
}

let zero_price_points ~pool ~n_rows (oracles : _ oracle array) =
  let zero = Array.make n_rows 0.0 in
  (* The payload is dropped in the task, so only (obj, usage) outlives
     the sweep until it is copied into the arena. *)
  let pts =
    Vod_util.Pool.map pool
      ~f:(fun (oracle : _ oracle) ->
        let pt = oracle.optimize ~obj_price:1.0 ~row_price:zero in
        { pt with data = () })
      oracles
  in
  let n = Array.length pts in
  let off = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    off.(k + 1) <- off.(k) + Sparse.length pts.(k).usage
  done;
  let rows = Array.make off.(n) 0 and vals = Array.create_float off.(n) in
  Array.iteri
    (fun k (pt : _ point) ->
      let l = Sparse.length pt.usage in
      Array.blit pt.usage.Sparse.rows 0 rows off.(k) l;
      Array.blit pt.usage.Sparse.vals 0 vals off.(k) l)
    pts;
  { objs = Array.map (fun (pt : _ point) -> pt.obj) pts; off; rows; vals }

(* obj + lambda . (the usage slice [o, e) of rows/vals). *)
let[@inline] priced lambda obj rows vals o e =
  let acc = ref obj in
  for j = o to e - 1 do
    acc := !acc +. (lambda.(rows.(j)) *. vals.(j))
  done;
  !acc

(* The ceiling's rounding margin, relative to the magnitudes summed. *)
let ceiling_margin = 1e-9

(* Per block, the least priced cost over its zero-price point and its
   columns; a NaN cost sticks, so that a NaN ceiling never proves
   anything. The sums run in block and row order. *)
let bound_ceiling (zero : zero_points) (combos : _ Combo.t array) ~capacities lambda =
  let sum = ref 0.0 and mag = ref 0.0 in
  for k = 0 to Array.length combos - 1 do
    let c = combos.(k) in
    let u =
      ref (priced lambda zero.objs.(k) zero.rows zero.vals zero.off.(k) zero.off.(k + 1))
    in
    for q = 0 to c.Combo.n - 1 do
      let v =
        priced lambda c.Combo.obj.(q) c.Combo.rows c.Combo.vals c.Combo.off.(q)
          c.Combo.off.(q + 1)
      in
      if v < !u || v <> v then u := v
    done;
    sum := !sum +. !u;
    mag := !mag +. Float.abs !u
  done;
  let lambda_b = ref 0.0 in
  for i = 0 to Array.length capacities - 1 do
    lambda_b := !lambda_b +. (lambda.(i) *. capacities.(i))
  done;
  (!sum -. !lambda_b, ceiling_margin *. (!mag +. !lambda_b))

(* The row with the largest usage/capacity ratio among rows [i, m), or
   [best] (first on ties). The ratio is recomputed, not carried, so the
   scan boxes no float. *)
let rec fullest_row ~capacities usage i best =
  if i = Array.length usage then best
  else
    fullest_row ~capacities usage (i + 1)
      (if usage.(i) /. capacities.(i) > usage.(best) /. capacities.(best) then i
       else best)

let max_violation ~capacities usage =
  if Array.length usage = 0 then 0.0
  else
    let i = fullest_row ~capacities usage 1 0 in
    Float.max 0.0 ((usage.(i) /. capacities.(i)) -. 1.0)

let integral_outcome ~capacities ~lower_bound ~passes ~pre_round_objective
    ~pre_round_violation ~history points =
  let row_usage = Array.make (Array.length capacities) 0.0 in
  Array.iter (fun (pt : _ point) -> Sparse.add_into row_usage 1.0 pt.usage) points;
  let objective =
    Array.fold_left (fun acc (pt : _ point) -> acc +. pt.obj) 0.0 points
  in
  let max_violation = max_violation ~capacities row_usage in
  {
    combos = Array.map (fun pt -> Combo.of_list [ (pt, 1.0) ]) points;
    objective;
    lower_bound;
    max_violation;
    row_usage;
    passes;
    pre_round_objective;
    pre_round_violation;
    history;
  }

(* exp with a linear extension above the overflow guard: continuous,
   monotone and convex, so the 1-D line search stays well-behaved even
   when a trial step is wildly infeasible. *)
let[@inline] safe_exp x = if x <= 500.0 then exp x else exp 500.0 *. (x -. 499.0)

let src = Logs.Src.create "vod.epf" ~doc:"EPF decomposition solver"

module Log = (val Logs.src_log src : Logs.LOG)

(* Side-band telemetry (see METRICS.md). Recording is write-only from
   the solver's point of view: the obs-taint lint rule statically
   rejects any read of Obs values under lib/, so nothing here can feed
   back into the numerics, and every call is a no-op unless a registry
   is installed ([--metrics]). *)
module Obs = Vod_obs.Obs

type 'a state = {
  p : params;
  objective_row : bool;            (* false in a FEAS probe: the potential
                                      has no objective term *)
  capacities : float array;
  oracles : 'a oracle array;
  combos : 'a Combo.t array;       (* per block: columns and aggregate usage *)
  zero : zero_points;              (* per block: its optimum at zero row
                                      prices, for the bound ceiling; empty
                                      in a FEAS probe *)
  blk_obj : float array;
  work : 'a Combo.work;            (* the combinations' scratch, and the
                                      delta buffer of a step or a rounding
                                      candidate *)
  usage : float array;             (* dense aggregate row usage *)
  mutable objective : float;
  mutable b_target : float;        (* the objective row's "capacity" B *)
  mutable lb : float;
  mutable delta : float;
  mutable alpha : float;
  prices : float array;            (* pi_i = exp(alpha r_i) / b_i *)
  mutable price_obj : float;       (* pi_0 *)
  mutable scale : float;           (* objective magnitude; floors b_target *)
  mutable theta : float;           (* target-push factor for the B control *)
  mutable freeze_target : bool;    (* stabilization: stop moving B *)
  smoothed : float array;          (* smoothed duals pi-bar *)
  mutable smoothed_obj : float;
  rng : Vod_util.Rng.t;
  scratch : float array;           (* per-pass buffer for pi-bar / pi-bar_0 *)
  pool : Vod_util.Pool.t;          (* domain pool for the block-parallel phases *)
}

let n_rows st = Array.length st.capacities

let[@inline] rel_infeas st i = (st.usage.(i) /. st.capacities.(i)) -. 1.0

let obj_infeas st = (st.objective /. st.b_target) -. 1.0

let coupling_violation st = max_violation ~capacities:st.capacities st.usage

let refresh_price st i =
  st.prices.(i) <- safe_exp (st.alpha *. rel_infeas st i) /. st.capacities.(i)

let refresh_prices st =
  for i = 0 to n_rows st - 1 do
    refresh_price st i
  done;
  st.price_obj <-
    (if st.objective_row then safe_exp (st.alpha *. obj_infeas st) /. st.b_target
     else 0.0)

let refresh_alpha st =
  let m = float_of_int (n_rows st + 1) in
  (* Floor delta so alpha stays finite as the solution approaches
     feasibility. *)
  let floor_delta = epsilon /. 4.0 in
  st.delta <- Float.max st.delta floor_delta;
  st.alpha <- gamma *. log (m +. 1.0) /. st.delta

(* [Sparse.add_into st.usage a] of the usage slice [o, o + l) of
   (rows, vals). *)
let add_slice st a rows vals o l =
  for j = o to o + l - 1 do
    let r = rows.(j) in
    st.usage.(r) <- st.usage.(r) +. (a *. vals.(j))
  done

(* Exact recomputation of per-block caches and aggregates, run once per
   pass to stop incremental drift. *)
let recompute st =
  Array.fill st.usage 0 (n_rows st) 0.0;
  st.objective <- 0.0;
  for k = 0 to Array.length st.combos - 1 do
    let c = st.combos.(k) in
    let o = Combo.recompute st.work c in
    st.blk_obj.(k) <- o;
    add_slice st 1.0 c.Combo.agg_rows c.Combo.agg_vals 0 c.Combo.agg_n;
    st.objective <- st.objective +. o
  done

(* Potential restricted to the rows touched by a step of size tau along
   (delta_usage, delta_obj), the step's usage being the first [d_len]
   entries of (d_rows, d_vals); the untouched rows are constant in tau.
   Inlined, so that the line search's evaluations box no float. *)
let[@inline] local_potential st ~d_rows ~d_vals ~d_len ~delta_obj tau =
  let acc = ref 0.0 in
  for k = 0 to d_len - 1 do
    let i = d_rows.(k) in
    let u = st.usage.(i) +. (tau *. d_vals.(k)) in
    acc := !acc +. safe_exp (st.alpha *. ((u /. st.capacities.(i)) -. 1.0))
  done;
  if st.objective_row then begin
    let o = st.objective +. (tau *. delta_obj) in
    acc := !acc +. safe_exp (st.alpha *. ((o /. st.b_target) -. 1.0))
  end;
  !acc

(* Ternary search for the minimizing step size; the potential along a
   segment is a sum of convex functions of tau, hence convex. *)
let line_search st ~d_len ~delta_obj =
  let d_rows = Combo.delta_rows st.work and d_vals = Combo.delta_vals st.work in
  let lo = ref 0.0 and hi = ref 1.0 in
  for _ = 1 to line_search_iters do
    let m1 = !lo +. ((!hi -. !lo) /. 3.0) in
    let m2 = !hi -. ((!hi -. !lo) /. 3.0) in
    if
      local_potential st ~d_rows ~d_vals ~d_len ~delta_obj m1
      <= local_potential st ~d_rows ~d_vals ~d_len ~delta_obj m2
    then hi := m2
    else lo := m1
  done;
  let tau = 0.5 *. (!lo +. !hi) in
  (* The endpoints are often optimal (fully adopt / fully reject); pick
     the best of 0, tau and 1, in that order, keeping the earlier one on
     ties, to avoid ternary-search dithering. *)
  let f0 = local_potential st ~d_rows ~d_vals ~d_len ~delta_obj 0.0 in
  let f_tau = local_potential st ~d_rows ~d_vals ~d_len ~delta_obj tau in
  let best = if f_tau < f0 then tau else 0.0 in
  let f_best = if f_tau < f0 then f_tau else f0 in
  if local_potential st ~d_rows ~d_vals ~d_len ~delta_obj 1.0 < f_best then 1.0 else best

type pass_stats = {
  mutable steps : int;        (* blocks that moved *)
  mutable tau_sum : float;
  mutable skipped : int;      (* oracle returned the current point *)
}

let step_block ?stats st k =
  let oracle = st.oracles.(k) in
  let hat = oracle.optimize ~obj_price:st.price_obj ~row_price:st.prices in
  let c = st.combos.(k) in
  let d_len = Combo.sub_block st.work c hat.usage in
  let delta_obj = hat.obj -. st.blk_obj.(k) in
  if d_len = 0 && Float.abs delta_obj < 1e-12 then
    Option.iter (fun s -> s.skipped <- s.skipped + 1) stats
  else begin
    let tau = line_search st ~d_len ~delta_obj in
    Option.iter
      (fun s ->
        if tau > 1e-9 then begin
          s.steps <- s.steps + 1;
          s.tau_sum <- s.tau_sum +. tau
        end)
      stats;
    if tau > 1e-9 then begin
      (* The step leaves the delta buffer alone. *)
      let pruned = Combo.step st.work c ~tau hat in
      if Obs.active () then Obs.incr ~by:pruned "epf/combo/pruned_points";
      st.blk_obj.(k) <- ((1.0 -. tau) *. st.blk_obj.(k)) +. (tau *. hat.obj);
      st.objective <- st.objective +. (tau *. delta_obj);
      (* Incremental aggregate + price update on the touched rows only. *)
      let d_rows = Combo.delta_rows st.work and d_vals = Combo.delta_vals st.work in
      for j = 0 to d_len - 1 do
        let i = d_rows.(j) in
        st.usage.(i) <- st.usage.(i) +. (tau *. d_vals.(j));
        refresh_price st i
      done;
      if st.objective_row then
        st.price_obj <- safe_exp (st.alpha *. obj_infeas st) /. st.b_target
    end
  end

(* Evaluate the Lagrangian bound for multipliers lambda_i = mult *
   duals_i / duals_obj (the objective row's price normalized to 1) and
   fold it into st.lb. The sweep is skipped when the bound ceiling plus
   its margin is below st.lb: the bound cannot then exceed st.lb, and
   st.lb is a running max, so skipping changes no value. *)
let try_duals st ?(mult = 1.0) duals duals_obj =
  if duals_obj > 0.0 then begin
    for i = 0 to n_rows st - 1 do
      st.scratch.(i) <- mult *. duals.(i) /. duals_obj
    done;
    let u, margin =
      bound_ceiling st.zero st.combos ~capacities:st.capacities st.scratch
    in
    let skip = u +. margin < st.lb in
    Obs.incr ~by:(Bool.to_int skip) "epf/lb/skipped";
    Obs.incr ~by:(Bool.to_int (not skip)) "epf/lb/sweeps";
    if not skip then begin
      let lb =
        lagrangian_bound ~pool:st.pool ~oracles:st.oracles
          ~capacities:st.capacities st.scratch
      in
      if lb > st.lb then st.lb <- lb
    end
  end

let lower_bound_pass st =
  if st.objective_row then
    Obs.phase "lb" (fun () ->
        (* Both the smoothed duals (Algorithm 1) and the instantaneous
           ones are valid multipliers; take the better bound. *)
        try_duals st st.smoothed st.smoothed_obj;
        try_duals st st.prices st.price_obj)

(* Objective-target control. The paper sets B <- LB, which works when the
   block lower bounds are near-exact; with heuristic dual-ascent bounds
   (often 10-25% weak) that would pin the objective row's violation r_0 at
   the duality gap, and the coupling rows equalize to r_0 — a permanent
   infeasibility plateau. Instead B trails the achievable objective like a
   trust region: when the iterate is epsilon-feasible, push B a notch
   below the current objective; when infeasible, back off. LB remains a
   hard floor, and the reported optimality gap is still measured against
   the true Lagrangian bound. *)
let update_target st ~dc =
  if st.freeze_target then refresh_prices st
  else if st.objective_row then begin
    if dc <= epsilon then begin
      st.theta <- Float.min 0.20 (st.theta *. 1.5);
      st.b_target <- Float.max st.lb (st.objective *. (1.0 -. st.theta))
    end
    else if dc <= 3.0 *. epsilon then
      (* Mild overshoot: keep pushing, half strength. *)
      st.b_target <- Float.max st.lb (st.objective *. (1.0 -. (st.theta /. 2.0)))
    else begin
      st.theta <- Float.max 0.01 (st.theta /. 2.0);
      st.b_target <-
        Float.max st.lb (Float.min (st.b_target *. 1.05) st.objective)
    end;
    st.b_target <- Float.max st.b_target (0.01 *. st.scale);
    (* Pushing B below the current objective makes the objective row
       "violated" by ~theta; the temperature must match that scale or the
       potential is too stiff for any mass to migrate and the iterate
       freezes. Re-derive prices since delta/B changed. *)
    let r0 = (st.objective /. st.b_target) -. 1.0 in
    if r0 > st.delta then begin
      st.delta <- r0;
      refresh_alpha st
    end;
    refresh_prices st
  end

(* Per-pass solver telemetry: the convergence series the paper reasons
   with (Sec. VI) — objective, Lagrangian bound, relative gap, max and
   count of violated rows, and the exact potential. Guarded because
   the potential evaluation is a full O(m) sweep worth paying only
   when metrics are being collected. *)
let record_pass_metrics st ~dc =
  if Obs.active () then begin
    Obs.incr "epf/passes";
    Obs.push "epf/pass/objective" st.objective;
    Obs.push "epf/pass/lower_bound" st.lb;
    Obs.push "epf/pass/gap"
      (if st.lb > 0.0 then (st.objective -. st.lb) /. st.lb else 0.0);
    Obs.push "epf/pass/violation" dc;
    let viol = ref 0 in
    for i = 0 to n_rows st - 1 do
      if rel_infeas st i > epsilon then viol := !viol + 1
    done;
    Obs.push "epf/pass/violated_rows" (float_of_int !viol);
    let pot = ref 0.0 in
    for i = 0 to n_rows st - 1 do
      pot := !pot +. safe_exp (st.alpha *. rel_infeas st i)
    done;
    if st.objective_row then pot := !pot +. safe_exp (st.alpha *. obj_infeas st);
    Obs.push "epf/pass/potential" !pot
  end

let update_smoothed st =
  for i = 0 to n_rows st - 1 do
    st.smoothed.(i) <- (rho *. st.smoothed.(i)) +. ((1.0 -. rho) *. st.prices.(i))
  done;
  st.smoothed_obj <- (rho *. st.smoothed_obj) +. ((1.0 -. rho) *. st.price_obj)

let init ?initial (p : params) ~objective_row ~pool ~capacities ~oracles =
  let m = Array.length capacities in
  (* Initial points are independent per block (each is a UFL solve under
     the same warm-start prices), so construct them in parallel; the
     result array is in block order by the pool contract. A caller that
     already holds a good point per block (an incumbent placement being
     re-solved by the daemon) passes [initial] and skips the oracle
     sweep entirely — the engine then starts its descent from the
     incumbent instead of the single-facility points. *)
  let points =
    match initial with
    | Some (points : _ point array) -> points
    | None -> Vod_util.Pool.map pool ~f:(fun (oracle : _ oracle) -> oracle.initial ()) oracles
  in
  let combos = Array.map (fun pt -> Combo.of_list [ (pt, 1.0) ]) points in
  (* Only the bound sweeps read the zero-price points, and a FEAS probe
     runs none. *)
  let zero =
    if objective_row then zero_price_points ~pool ~n_rows:m oracles
    else { objs = [||]; off = [| 0 |]; rows = [||]; vals = [||] }
  in
  let st =
    {
      p;
      objective_row;
      capacities;
      oracles;
      combos;
      zero;
      blk_obj = Array.make (Array.length oracles) 0.0;
      work = Combo.work ();
      usage = Array.make m 0.0;
      objective = 0.0;
      b_target = 1.0;
      lb = 0.0;
      delta = 1.0;
      alpha = 1.0;
      prices = Array.make m 0.0;
      price_obj = 0.0;
      scale = 1.0;
      theta = 0.10;
      freeze_target = false;
      smoothed = Array.make m 0.0;
      smoothed_obj = 0.0;
      rng = Vod_util.Rng.create p.seed;
      scratch = Array.make m 0.0;
      pool;
    }
  in
  recompute st;
  (* The initial (single-facility) objective is the natural magnitude of
     the problem: it upper-bounds OPT's order and anchors B until real
     Lagrangian bounds arrive. *)
  st.scale <- Float.max st.objective 1e-9;
  (* Initial lower bound: all multipliers zero relaxes every coupling
     constraint, so the sum of unpriced block minima is valid. *)
  if objective_row then begin
    st.lb <- lagrangian_bound ~pool ~oracles ~capacities (Array.make m 0.0);
    st.b_target <- Float.max st.lb st.scale
  end;
  st.delta <- Float.max (coupling_violation st) epsilon;
  refresh_alpha st;
  refresh_prices st;
  Array.blit st.prices 0 st.smoothed 0 m;
  st.smoothed_obj <- st.price_obj;
  st

(* One full pass over all blocks in a fresh random order (the paper found
   reshuffling each pass cuts the pass count by 40x versus a fixed
   order).

   This pass is deliberately NOT parallelized: it is a Gauss-Seidel
   sweep, in which each block's oracle call prices in the usage shifts
   of every block stepped before it in this same pass. That immediate
   feedback is what makes a handful of passes suffice (a Jacobi-style
   variant — all oracle calls at frozen prices, then merge — needs far
   more passes and oscillates on tight rows, negating the parallel
   win). The parallel phases are the ones that are price-frozen by
   construction: initial-point construction, the Lagrangian
   lower-bound sweeps, and the rounding/polish candidate oracles. *)
let run_pass st =
  Obs.phase "pass" @@ fun () ->
  let n = Array.length st.oracles in
  let order =
    if st.p.shuffle then Vod_util.Rng.permutation st.rng n
    else Array.init n (fun i -> i)
  in
  let stats = { steps = 0; tau_sum = 0.0; skipped = 0 } in
  Array.iter (fun k -> step_block ~stats st k) order;
  Obs.incr ~by:stats.skipped "epf/pass/skipped";
  Log.debug (fun m ->
      m "  steps=%d avg_tau=%.4f skipped=%d price_obj=%.3g" stats.steps
        (if stats.steps = 0 then 0.0 else stats.tau_sum /. float_of_int stats.steps)
        stats.skipped st.price_obj);
  recompute st;
  let dc = coupling_violation st in
  (* Delta schedule: ratchet the scale down by a constant factor each
     pass (the paper's phased delta-shrink), but never below the current
     coupling infeasibility would warrant — if the iterate overshoots and
     violations grow, delta re-expands so the line searches don't freeze
     under an overly stiff exponent. The objective row's relative gap is
     excluded: with a heuristic (dual-ascent) lower bound it can stay at
     tens of percent, and pinning alpha to it would stall the feasibility
     drive. *)
  let floor = if st.freeze_target then epsilon else epsilon /. 4.0 in
  let target = Float.max dc floor in
  st.delta <- Float.max (Float.min target (0.90 *. st.delta)) floor;
  st.delta <- Float.max st.delta (0.25 *. target);
  refresh_alpha st;
  refresh_prices st;
  update_smoothed st;
  lower_bound_pass st;
  update_target st ~dc;
  record_pass_metrics st ~dc;
  dc

(* Rounding pass (paper Sec. V-D). Every fractional block (a combination
   of >1 points) is snapped to one integral point, in random order, with
   prices updated as loads shift. For each block we consider its own combo
   points — each was a block optimum at some stage — plus a fresh oracle
   point at current prices, and pick the candidate with the lowest priced
   cost. Snapping to combo members keeps the rounded solution close to
   the fractional one, which is what keeps the post-rounding violation
   small (the paper reports < 1-4%). *)
let round_pass ?(only_fractional = true) st =
  Obs.phase "round" @@ fun () ->
  Obs.incr "epf/round/passes";
  (* Move block k from its aggregate to the candidate whose usage is the
     slice [o, o + l) of (rows, vals) and whose objective is [obj]; the
     caller then makes the candidate the block's only column. *)
  let snap k ~obj rows vals o l =
    Obs.incr "epf/round/snaps";
    let c = st.combos.(k) in
    add_slice st (-1.0) c.Combo.agg_rows c.Combo.agg_vals 0 c.Combo.agg_n;
    add_slice st 1.0 rows vals o l;
    st.objective <- st.objective -. st.blk_obj.(k) +. obj;
    (* Update prices on every touched row so later blocks see the shift. *)
    for j = 0 to c.Combo.agg_n - 1 do
      refresh_price st c.Combo.agg_rows.(j)
    done;
    for j = o to o + l - 1 do
      refresh_price st rows.(j)
    done;
    st.blk_obj.(k) <- obj
  in
  (* A candidate's merit is the *actual* potential after a full (tau = 1)
     step to it — not its linearized priced cost. The linearization is
     blind to how a multi-copy point shifts row loads past capacity
     (prices are frozen inside one oracle call), which is exactly how a
     popular video could overflow disks during rounding. The step's usage
     is the first [d_len] entries of the delta buffer. *)
  let merit ~d_len ~delta_obj =
    let d_rows = Combo.delta_rows st.work and d_vals = Combo.delta_vals st.work in
    (* Potential *change* of the full step: candidates touch different row
       sets, so raw local potentials are not comparable. *)
    local_potential st ~d_rows ~d_vals ~d_len ~delta_obj 1.0
    -. local_potential st ~d_rows ~d_vals ~d_len ~delta_obj 0.0
  in
  Log.debug (fun m ->
      m "round: alpha=%.1f delta=%.4f price_obj=%.4g b_target=%.6g obj=%.6g"
        st.alpha st.delta st.price_obj st.b_target st.objective);
  let order = Vod_util.Rng.permutation st.rng (Array.length st.oracles) in
  (* The fresh [optimize_strong] candidates — the expensive part of
     rounding — are computed for every block this pass will consider,
     in parallel, at the pass-entry prices. The snap loop itself stays
     sequential: each snap's merit is the exact potential change under
     the *live* row usage, so blocks still see earlier snaps' load
     shifts and cannot jointly overflow a row. Freezing the candidate
     prices (rather than re-pricing per snap) is what makes the result
     independent of the job count; the combination's columns, each a
     block optimum from some earlier pass, still anchor the candidate
     set. *)
  let wants_fresh k = Combo.length st.combos.(k) > 1 || not only_fractional in
  let considered =
    let acc = ref [] in
    for k = Array.length st.oracles - 1 downto 0 do
      if wants_fresh k then acc := k :: !acc
    done;
    Array.of_list !acc
  in
  let fresh_of = Array.make (Array.length st.oracles) None in
  let fresh_pts =
    Vod_util.Pool.map st.pool
      ~f:(fun k ->
        st.oracles.(k).optimize_strong ~obj_price:st.price_obj
          ~row_price:st.prices)
      considered
  in
  Array.iteri (fun i k -> fresh_of.(k) <- Some fresh_pts.(i)) considered;
  if Obs.active () then
    Obs.incr ~by:(Array.length considered) "epf/round/fresh_candidates";
  Array.iter
    (fun k ->
      (* A fractional block always has a candidate; an integral one only
         in polish sweeps. *)
      if wants_fresh k then begin
        let c = st.combos.(k) in
        let n = Combo.length c in
        (* [wants_fresh k] held when the candidates were precomputed,
           so the slot is filled. *)
        let fresh = Option.get fresh_of.(k) in
        let fresh_m =
          merit
            ~d_len:(Combo.sub_block st.work c fresh.usage)
            ~delta_obj:(fresh.obj -. st.blk_obj.(k))
        in
        if Obs.active () then Obs.observe "epf/round/candidate_merit" fresh_m;
        (* The fresh point, then the columns in order; the first strict
           improvement wins. *)
        let best = ref (-1) and best_m = ref fresh_m in
        for q = 0 to n - 1 do
          let m =
            merit
              ~d_len:(Combo.sub_column st.work c q)
              ~delta_obj:(c.Combo.obj.(q) -. st.blk_obj.(k))
          in
          if Obs.active () then Obs.observe "epf/round/candidate_merit" m;
          if m < !best_m then begin
            best := q;
            best_m := m
          end
        done;
        (* On an already-integral block only snap strict improvements. *)
        if n > 1 || !best_m < -1e-9 then
          if !best < 0 then begin
            let u = fresh.usage in
            snap k ~obj:fresh.obj u.Sparse.rows u.Sparse.vals 0 (Sparse.length u);
            Combo.reset c fresh
          end
          else begin
            let q = !best in
            let o = c.Combo.off.(q) in
            snap k ~obj:c.Combo.obj.(q) c.Combo.rows c.Combo.vals o (c.Combo.off.(q + 1) - o);
            Combo.keep c q
          end
      end)
    order

(* Post-rounding polish: a few sweeps in which *every* block may snap to a
   fresh oracle point if that strictly decreases the potential — a cheap
   large-neighborhood descent on the integer solution. *)
let polish st =
  Obs.phase "polish" @@ fun () ->
  for _ = 1 to polish_passes do
    round_pass ~only_fractional:false st;
    recompute st;
    refresh_prices st
  done

let solve ?(round = true) ?initial (p : params) ~capacities ~oracles =
  check_inputs ?initial ~capacities oracles;
  (* One pool for the whole solve; workers park between parallel
     phases, so the sequential Gauss-Seidel passes pay nothing for it. *)
  Vod_util.Pool.with_pool ~jobs:p.jobs (fun pool ->
  let st =
    Obs.phase "init" (fun () ->
        init ?initial p ~objective_row:true ~pool ~capacities ~oracles)
  in
  let passes = ref 0 in
  let stop = ref false in
  (* Plateau detection: once epsilon-feasible, keep squeezing the
     objective until it stops improving meaningfully. *)
  let best_obj = ref infinity and last_improve = ref 0 in
  let history = ref [] in
  let patience = 10 in
  while (not !stop) && !passes < p.max_passes do
    incr passes;
    let dc = run_pass st in
    history := (st.objective, st.lb, dc) :: !history;
    Log.debug (fun m ->
        m "pass %d: obj=%.6g lb=%.6g viol=%.4f delta=%.4f" !passes
          st.objective st.lb dc st.delta);
    if st.objective < !best_obj *. (1.0 -. (epsilon /. 4.0)) then begin
      best_obj := st.objective;
      last_improve := !passes
    end;
    if dc <= epsilon then begin
      if st.objective <= (1.0 +. epsilon) *. Float.max st.lb 1e-12 then
        stop := true
      else if !passes - !last_improve >= patience then stop := true
    end
  done;
  (* Stabilization: relax the objective target to the best achieved value
     and run a few passes so the iterate returns inside the epsilon band
     before rounding (the push phase deliberately leaves it oscillating
     around it). *)
  st.freeze_target <- true;
  st.b_target <- Float.max (Float.max st.lb (st.objective *. 1.01)) (0.01 *. st.scale);
  st.delta <- Float.max st.delta epsilon;
  refresh_alpha st;
  refresh_prices st;
  for _ = 1 to 3 do
    ignore (run_pass st)
  done;
  Log.debug (fun m ->
      m "stabilized: obj=%.6g viol=%.4f" st.objective (coupling_violation st));
  (* Final bound sweep: the multipliers the run converged to may be off
     by a uniform scale (the B control distorts pi_0), so a grid of
     scalings is probed. It seldom pays: over 80 solves of the
     benchmark's solve-cold and replan-daemon shapes it raised the bound
     in 5, by 0 to 0.4% in three and by 15% and 19% in two, and the
     ceiling skips 510 of its 560 sweeps. *)
  Obs.phase "final_lb" (fun () ->
      List.iter
        (fun mult -> try_duals st ~mult st.smoothed st.smoothed_obj)
        [ 0.25; 0.5; 2.0; 4.0; 8.0; 16.0; 32.0 ]);
  let pre_round_objective = st.objective in
  let pre_round_violation = coupling_violation st in
  if round then begin
    round_pass st;
    recompute st;
    refresh_prices st;
    polish st
  end;
  let max_violation = coupling_violation st in
  {
    combos = st.combos;
    objective = st.objective;
    lower_bound = st.lb;
    max_violation;
    row_usage = Array.copy st.usage;
    passes = !passes;
    pre_round_objective;
    pre_round_violation;
    history = Array.of_list (List.rev !history);
  })

(* FEAS: the same passes with no objective row, so the potential only
   drives the coupling rows below capacity. No bound, target or rounding
   is needed, and the first epsilon-feasible pass answers the probe. *)
let feasible (p : params) ~capacities ~oracles =
  check_inputs ~capacities oracles;
  Vod_util.Pool.with_pool ~jobs:p.jobs (fun pool ->
      let st =
        Obs.phase "init" (fun () ->
            init p ~objective_row:false ~pool ~capacities ~oracles)
      in
      let rec descend passes =
        if passes >= p.max_passes then coupling_violation st <= epsilon
        else run_pass st <= epsilon || descend (passes + 1)
      in
      descend 0)
