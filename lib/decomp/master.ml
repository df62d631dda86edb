(* Stabilized Dantzig-Wolfe / Benders cutting-plane master.

   Same contract as the EPF engine (blocks behind Engine.oracle, coupling
   capacities, Engine.outcome out), different machinery: a restricted
   master LP over per-block oracle columns, solved exactly by the dense
   simplex, whose dual prices drive the next oracle round. Four design
   points keep it sound and deterministic:

   - Disaggregation: every block keeps its own convexity row and its own
     columns, so the master can mix blocks independently — the structure
     that actually reaches feasibility in tens of passes. Columns with
     zero weight are pruned each pass (fresh ones are spared one pass),
     and the LP carries only the coupling rows the pool can fill
     ([fillable_rows]; the others cannot bind, and leaving them out
     changes no bit of the result), which keeps the tableau at roughly
     (fillable rows + blocks) square.
   - Soft capacities: every coupling row in the LP gets an explicit
     relative-overflow variable priced at [price_cap_factor x the average
     initial block objective], so the master is always feasible and its
     duals are boxed at [pen / capacity] — the "box" half of the
     stabilization. The penalty doubles when the master stalls while
     still violating, so feasibility is eventually enforced.
   - In-out queries: oracles are priced at a convex combination of the
     incumbent (best-lower-bound) prices and the master's duals; the
     in-weight grows on serious steps (the center just moved, trust it)
     and decays on null steps — in the limit the loop is pure Kelley /
     column generation, which is what guarantees convergence.
   - Ordered reductions: cut generation and bound sweeps fan out through
     Pool with in-order combination, so the outcome is bit-identical at
     any [jobs] count.

   Wall-clock never appears here (wallclock-in-solver rule): phase
   timings go through Vod_obs.Obs like the EPF engine's. *)

module Obs = Vod_obs.Obs
module Pool = Vod_util.Pool
module Engine = Vod_epf.Engine
module Sparse = Vod_epf.Sparse
module Simplex = Vod_lp.Simplex

let src = Logs.Src.create "vod.decomp" ~doc:"stabilized cutting-plane master"

module Log = (val Logs.src_log src : Logs.LOG)

let epsilon = Engine.epsilon

(* Stabilization: the incumbent's weight in the query prices starts at
   [stab_in_weight] and never decays below half of it; a null step
   multiplies it by [stab_shrink] (twice when the pass produced no fresh
   column), a serious step by [stab_grow], capped at [stab_max]. *)
let stab_in_weight = 0.5
let stab_shrink = 0.7
let stab_grow = 1.3
let stab_max = 0.9

(* Overflow penalty, as a multiple of the average initial block
   objective. *)
let price_cap_factor = 10.0

(* Bound on the post-rounding polish sweeps. *)
let polish_sweeps = 4

(* One master column: a single block's oracle point. [born] is the pass
   that generated it — fresh columns survive one pruning sweep even at
   zero weight, so the master prices them at least once. *)
type 'a column = { block : int; pt : 'a Engine.point; born : int }

(* Sparse usages are canonical (sorted, zero-free), so structural
   equality on (obj, usage) is an exact same-point test. [data] is an
   opaque payload (may contain closures) and must stay out of it. *)
let same_pt (a : _ Engine.point) (b : _ Engine.point) =
  a.Engine.obj = b.Engine.obj && a.Engine.usage = b.Engine.usage

(* The fillable-row screen. A column of block b puts at most
   max_(t in b) usage_t(i) on row i, and every point the simplex visits
   (phase 1 included) keeps sum_(t in b) w_t <= 1, so no such point puts
   more than the row's reach
     sum_b max(0, max_(t in b) usage_t(i))
   on row i. A row whose reach is at most (1 - fill_margin) b_i therefore
   holds strictly throughout: its slack never leaves the basis, and its
   slack and overflow columns stay unit vectors that never enter. The
   simplex makes the same pivots without the row, on the same operands,
   so dropping it moves no bit of the weights or of the other rows'
   duals, and its own price is the +0 an idle row gets anyway. The
   simplex's entering rule keeps this. Dantzig's argmax over the kept
   columns sees them in the same relative order, and the dropped row's
   columns never win it: its basic slack has reduced cost 0, and its
   overflow column, a multiple of that slack's unit column, -pen in
   phase 2 and 0 in phase 1. The degenerate pivots that trigger the
   Bland fallback are the same pivots on both LPs, so the fallback
   fires at the same pivot too. In
   floating point this also needs the row's ratio in each ratio test to
   stay clear of the minimum by more than the simplex's 1e-9 tie
   tolerance: the margin leaves the row a slack of at least
   fill_margin x b_i at every vertex, which keeps it clear unless the
   row's entry in the entering column is of the order of 1000 b_i. *)
let fill_margin = 1e-6

(* Raise [block_max] to the usages in [cols], one block's columns. *)
let rec lift block_max (cols : Sparse.t list) =
  match cols with
  | [] -> ()
  | u :: rest ->
      for k = 0 to Array.length u.Sparse.rows - 1 do
        let i = u.Sparse.rows.(k) in
        if u.Sparse.vals.(k) > block_max.(i) then
          block_max.(i) <- u.Sparse.vals.(k)
      done;
      lift block_max rest

(* Add each row's block maximum into [reach] once, resetting it to 0 for
   the next block. *)
let rec settle reach block_max (cols : Sparse.t list) =
  match cols with
  | [] -> ()
  | u :: rest ->
      for k = 0 to Array.length u.Sparse.rows - 1 do
        let i = u.Sparse.rows.(k) in
        reach.(i) <- reach.(i) +. block_max.(i);
        block_max.(i) <- 0.0
      done;
      settle reach block_max rest

(* Record in [rows], from slot [k] on, the rows [i] and above whose reach
   exceeds (1 - fill_margin) x capacity; returns the number of slots
   filled. *)
let rec fillable reach capacities rows i k =
  if i = Array.length capacities then k
  else if reach.(i) > (1.0 -. fill_margin) *. capacities.(i) then begin
    rows.(k) <- i;
    fillable reach capacities rows (i + 1) (k + 1)
  end
  else fillable reach capacities rows (i + 1) k

let fillable_rows ~capacities blocks =
  let n_rows = Array.length capacities in
  let reach = Array.make n_rows 0.0 and block_max = Array.make n_rows 0.0 in
  for b = 0 to Array.length blocks - 1 do
    lift block_max blocks.(b);
    settle reach block_max blocks.(b)
  done;
  let rows = Array.make n_rows 0 in
  Array.sub rows 0 (fillable reach capacities rows 0 0)

(* Solve the restricted master
     min  sum_t obj_t w_t + pen * sum_k v_k
     s.t. sum_t usage_t(i_k) w_t - b_(i_k) v_k <= b_(i_k)  (k over kept rows)
          sum_(t in block b) w_t = 1                       (b over blocks)
          w, v >= 0
   over the rows {!fillable_rows} keeps for the current pool (the others
   cannot bind, see above). Returns (weights, clamped row prices over the
   full row space). *)
let solve_master ~columns ~capacities ~pen ~k_blocks =
  let t_count = Array.length columns in
  let members = Array.make k_blocks [] and usages = Array.make k_blocks [] in
  for t = t_count - 1 downto 0 do
    let b = columns.(t).block in
    members.(b) <- (t, 1.0) :: members.(b);
    usages.(b) <- columns.(t).pt.Engine.usage :: usages.(b)
  done;
  let kept = fillable_rows ~capacities usages in
  let n_kept = Array.length kept in
  Obs.push "decomp/pass/master_rows" (float_of_int n_kept);
  let n_vars = t_count + n_kept in
  let minimize = Array.make n_vars 0.0 in
  Array.iteri (fun t c -> minimize.(t) <- c.pt.Engine.obj) columns;
  for k = 0 to n_kept - 1 do
    minimize.(t_count + k) <- pen
  done;
  let buckets = Array.make (Array.length capacities) [] in
  for t = t_count - 1 downto 0 do
    Sparse.iter
      (fun i u -> if u <> 0.0 then buckets.(i) <- (t, u) :: buckets.(i))
      columns.(t).pt.Engine.usage
  done;
  let cap_rows =
    Array.to_list
      (Array.mapi
         (fun k i ->
           {
             Simplex.row = (t_count + k, -.capacities.(i)) :: buckets.(i);
             rel = Simplex.Le;
             rhs = capacities.(i);
           })
         kept)
  in
  let convexity =
    List.init k_blocks (fun b ->
        { Simplex.row = members.(b); rel = Simplex.Eq; rhs = 1.0 })
  in
  let problem =
    { Simplex.n_vars; minimize; constraints = cap_rows @ convexity }
  in
  let solved = Simplex.solve_with_stats problem in
  Obs.incr ~by:solved.Simplex.pivots "decomp/rmp/pivots";
  Obs.incr ~by:(Bool.to_int solved.Simplex.bland_fallback) "decomp/rmp/bland_fallbacks";
  match solved.Simplex.result with
  | Simplex.Optimal { solution; duals; _ } ->
      let weights = Array.sub solution 0 t_count in
      let prices = Array.make (Array.length capacities) 0.0 in
      Array.iteri
        (fun k i ->
          (* Le duals are <= 0 for a minimization; the oracle price is
             the nonnegative shadow price, boxed by the penalty. *)
          let y = -.duals.(k) in
          prices.(i) <- Float.min (pen /. capacities.(i)) (Float.max 0.0 y))
        kept;
      (weights, prices)
  | Simplex.Infeasible | Simplex.Unbounded ->
      (* Overflow variables make the master feasible and the convexity
         rows bound it; reaching this means the tableau broke down.
         vodlint-disable no-failwith -- invariant breach, not an
         argument error; Failure matches the backend contract *)
      failwith "Decomp.Master: restricted master LP did not solve"

(* Deterministic sequential rounding, EPF-style: start from the
   *fractional* mix's row usage and replace one block's fractional
   footprint at a time with its cheapest integral candidate under
   [pen]-priced marginal overflow — later blocks see earlier snaps'
   load shifts, which is what keeps the rounded solution close to the
   fractional one. Polish sweeps then let blocks re-snap (including a
   fresh oracle point priced by the rows currently overloaded).
   Candidates per block: its live master columns plus a strong oracle
   point at the incumbent prices. *)
let round_blocks ~pool ~capacities ~pen ~prices ~columns ~weights ~oracles =
  Obs.phase "round" @@ fun () ->
  let n_rows = Array.length capacities in
  let k_blocks = Array.length oracles in
  let live_by_block = Array.make k_blocks [] in
  for t = Array.length columns - 1 downto 0 do
    if weights.(t) > 1e-9 then
      live_by_block.(columns.(t).block) <-
        (weights.(t), columns.(t).pt) :: live_by_block.(columns.(t).block)
  done;
  let strong =
    Pool.map pool
      ~f:(fun (o : _ Engine.oracle) ->
        o.Engine.optimize_strong ~obj_price:1.0 ~row_price:prices)
      oracles
  in
  let candidates k = List.map snd live_by_block.(k) @ [ strong.(k) ] in
  let used = Array.make n_rows 0.0 in
  Array.iter
    (List.iter (fun (w, (pt : _ Engine.point)) ->
         Sparse.add_into used w pt.Engine.usage))
    live_by_block;
  (* Marginal overflow cost of adding [pt] on top of [used]. *)
  let overflow_delta (pt : _ Engine.point) =
    let d = ref 0.0 in
    Sparse.iter
      (fun i u ->
        let b = capacities.(i) in
        let before = Float.max 0.0 (used.(i) -. b) in
        let after = Float.max 0.0 (used.(i) +. u -. b) in
        d := !d +. (pen /. b *. (after -. before)))
      pt.Engine.usage;
    !d
  in
  let merit pt = pt.Engine.obj +. overflow_delta pt in
  (* Congestion-priced relief: rows get more expensive as they fill
     (quadratic past half-full, [pen/b] at the cap) so fresh points
     prefer genuinely slack rows instead of rows one unit below cap. *)
  let relief_prices_of () =
    Array.init n_rows (fun i ->
        let b = capacities.(i) in
        let fill = used.(i) /. b in
        let congestion = Float.max 0.0 ((2.0 *. fill) -. 1.0) in
        prices.(i) +. (pen /. b *. congestion *. congestion))
  in
  let best_of cands =
    match cands with
    | [] -> invalid_arg "Decomp.Master: block with no candidate point"
    | first :: rest ->
        List.fold_left
          (fun (bp, bm) pt ->
            let m = merit pt in
            if m < bm -. 1e-12 then (pt, m) else (bp, bm))
          (first, merit first) rest
  in
  let chosen =
    Array.init k_blocks (fun k ->
        List.iter
          (fun (w, (pt : _ Engine.point)) ->
            Sparse.add_into used (-.w) pt.Engine.usage)
          live_by_block.(k);
        let pt, _ = best_of (candidates k) in
        Sparse.add_into used 1.0 pt.Engine.usage;
        pt)
  in
  (* Polish until no sweep snaps (bounded): draining a congested row
     usually takes a few sweeps of one-block re-routes. *)
  let improved = ref true in
  let sweeps = ref 0 in
  while !improved && !sweeps < polish_sweeps do
    incr sweeps;
    improved := false;
    for k = 0 to k_blocks - 1 do
      Sparse.add_into used (-1.0) chosen.(k).Engine.usage;
      (* A fresh greedy point that sees exactly how full the rest of
         the system currently runs each row. *)
      let fresh =
        oracles.(k).Engine.optimize ~obj_price:1.0
          ~row_price:(relief_prices_of ())
      in
      (* Same semantics as folding [fresh] in last: it wins only when
         strictly better than every stored candidate. *)
      let pt0, m0 = best_of (candidates k) in
      let mf = merit fresh in
      let pt, m = if mf < m0 -. 1e-12 then (fresh, mf) else (pt0, m0) in
      if m < merit chosen.(k) -. 1e-12 then begin
        Obs.incr "decomp/round/snaps";
        improved := true;
        chosen.(k) <- pt
      end;
      Sparse.add_into used 1.0 chosen.(k).Engine.usage
    done
  done;
  (* Targeted repair: while some row is still over its cap, evict from
     the *worst* row the block whose cheapest avoiding point costs the
     least — sweeps in block order cannot find that block, a min-cost
     argmin over the row's users can. A block remembers the rows it was
     evicted from ([evicted]): its later candidates price each of them
     with the same surcharge as the worst row and must avoid them all,
     so no block moves back into a row it left. Without that memory a
     block can swap between two full rows until the budget runs out.
     Bounded; ties break on the lowest block id (deterministic). *)
  let repair_budget = ref (4 * k_blocks) in
  let evicted = Array.make k_blocks [] in
  let surcharge rp i = rp.(i) <- rp.(i) +. (100.0 *. pen /. capacities.(i)) in
  let continue_repair = ref true in
  while !continue_repair && !repair_budget > 0 do
    let worst = ref (-1) and wv = ref epsilon in
    Array.iteri
      (fun i u ->
        let r = (u -. capacities.(i)) /. capacities.(i) in
        if r > !wv then begin
          worst := i;
          wv := r
        end)
      used;
    if !worst < 0 then continue_repair := false
    else begin
      let r = !worst in
      let relief_prices = relief_prices_of () in
      surcharge relief_prices r;
      let users =
        let acc = ref [] in
        for k = k_blocks - 1 downto 0 do
          let touches = ref false in
          Sparse.iter
            (fun i u -> if i = r && u > 0.0 then touches := true)
            chosen.(k).Engine.usage;
          if !touches then acc := k :: !acc
        done;
        !acc
      in
      let best_k = ref (-1) and best_d = ref infinity and best_pt = ref None in
      List.iter
        (fun k ->
          decr repair_budget;
          Sparse.add_into used (-1.0) chosen.(k).Engine.usage;
          let row_price =
            match evicted.(k) with
            | [] -> relief_prices
            | left ->
                let rp = Array.copy relief_prices in
                List.iter (surcharge rp) left;
                rp
          in
          let fresh = oracles.(k).Engine.optimize ~obj_price:1.0 ~row_price in
          (* Off [r] and off every row [k] was evicted from. *)
          let avoids (pt : _ Engine.point) =
            let ok = ref true in
            Sparse.iter
              (fun i u ->
                if (i = r || List.mem i evicted.(k)) && not (u < 1e-12) then
                  ok := false)
              pt.Engine.usage;
            !ok
          in
          (if avoids fresh then
             let d = merit fresh -. merit chosen.(k) in
             if d < !best_d -. 1e-12 then begin
               best_d := d;
               best_k := k;
               best_pt := Some fresh
             end);
          Sparse.add_into used 1.0 chosen.(k).Engine.usage)
        users;
      match !best_pt with
      | Some pt when !best_k >= 0 ->
          Obs.incr "decomp/round/repairs";
          Sparse.add_into used (-1.0) chosen.(!best_k).Engine.usage;
          chosen.(!best_k) <- pt;
          evicted.(!best_k) <- r :: evicted.(!best_k);
          Sparse.add_into used 1.0 pt.Engine.usage
      | _ ->
          (* No user of the worst row can avoid it: integrally stuck
             (e.g. a single copy already exceeds the cap). *)
          continue_repair := false
    end
  done;
  chosen

let solve ?initial ~initial_prices ~max_passes ~jobs ~capacities oracles =
  Engine.check_inputs ?initial ~capacities oracles;
  let n_rows = Array.length capacities in
  let k_blocks = Array.length oracles in
  if Array.length initial_prices <> n_rows then
    invalid_arg "Decomp.Master.solve: initial_prices arity";
  Pool.with_pool ~jobs (fun pool ->
      (* Seed columns: every oracle's own initial point, plus the
         warm-start point (when given and distinct). The average initial
         block objective sets the penalty scale. *)
      let own =
        Obs.phase "init" (fun () ->
            Pool.map pool
              ~f:(fun (o : _ Engine.oracle) -> o.Engine.initial ())
              oracles)
      in
      let init_cols =
        let acc = ref [] in
        for k = k_blocks - 1 downto 0 do
          (match initial with
          | Some pts when not (same_pt pts.(k) own.(k)) ->
              acc := { block = k; pt = pts.(k); born = 0 } :: !acc
          | _ -> ());
          acc := { block = k; pt = own.(k); born = 0 } :: !acc
        done;
        !acc
      in
      let init_total =
        Array.fold_left (fun a (pt : _ Engine.point) -> a +. pt.Engine.obj) 0.0
          own
      in
      let columns = ref (Array.of_list init_cols) in
      let pen =
        ref
          (price_cap_factor
          *. Float.max 1e-6 (init_total /. float_of_int k_blocks))
      in
      let clamp prices =
        Array.mapi
          (fun i v -> Float.min (!pen /. capacities.(i)) (Float.max 0.0 v))
          prices
      in
      let lambda_in = clamp initial_prices in
      let lambda_out = ref (Array.copy lambda_in) in
      let lambda_center = ref (Array.copy lambda_in) in
      let beta = ref stab_in_weight in
      let best_lb = ref neg_infinity in
      let weights = ref (Array.make (Array.length !columns) 0.0) in
      let frac_obj = ref init_total in
      let frac_viol = ref 0.0 in
      let passes = ref 0 in
      let passes_to_gap = ref (-1) in
      let converged = ref false in
      let stall = ref 0 in
      let prev_master_value = ref infinity in
      let viol_anchor = ref infinity in
      let history = ref [] in
      Obs.set_gauge "decomp/master/rows" (float_of_int n_rows);
      while (not !converged) && !passes < max_passes do
        incr passes;
        Obs.incr "decomp/passes";
        let lq =
          Array.init n_rows (fun i ->
              (!beta *. !lambda_center.(i))
              +. ((1.0 -. !beta) *. !lambda_out.(i)))
        in
        (* Cut generation: one candidate column per block at the query
           prices; when nothing fresh comes back, retry at the master's
           own duals (the pure column-generation query) so the model
           still tightens this pass. *)
        let cut_at prices =
          Obs.phase "cuts" (fun () ->
              Pool.map pool
                ~f:(fun (o : _ Engine.oracle) ->
                  o.Engine.optimize ~obj_price:1.0 ~row_price:prices)
                oracles)
        in
        let add pts =
          let fresh = ref [] and n_fresh = ref 0 in
          Array.iteri
            (fun k (pt : _ Engine.point) ->
              let dup =
                Array.exists
                  (fun c -> c.block = k && same_pt c.pt pt)
                  !columns
              in
              if not dup then begin
                incr n_fresh;
                Obs.incr "decomp/cuts_added";
                fresh := { block = k; pt; born = !passes } :: !fresh
              end)
            pts;
          if !n_fresh > 0 then
            columns := Array.append !columns (Array.of_list (List.rev !fresh));
          !n_fresh > 0
        in
        let fresh = add (cut_at lq) in
        let fresh =
          if (not fresh) && !beta > 1e-3 then add (cut_at !lambda_out)
          else fresh
        in
        let lb =
          Obs.phase "lb" (fun () ->
              Engine.lagrangian_bound ~pool ~oracles ~capacities lq)
        in
        (* In-out update: a serious step (better Lagrangian value at the
           query) re-centers and can afford a more conservative query
           next pass; a null step decays the in-weight toward the
           master's duals — in the limit the loop is pure Kelley /
           column generation, which is what guarantees convergence. *)
        let serious = lb > !best_lb +. 1e-12 in
        if serious then begin
          Obs.incr "decomp/stab/serious_steps";
          best_lb := lb;
          lambda_center := lq;
          beta := Float.min stab_max (!beta *. stab_grow)
        end
        else begin
          Obs.incr "decomp/stab/null_steps";
          beta :=
            Float.max (stab_in_weight /. 2.0)
              (!beta *. stab_shrink
              *. (if fresh then 1.0 else stab_shrink))
        end;
        (* Re-solve the restricted master over the current column pool. *)
        let w, prices =
          Obs.phase "rmp" (fun () ->
              solve_master ~columns:!columns ~capacities ~pen:!pen ~k_blocks)
        in
        weights := w;
        lambda_out := prices;
        if not serious then
          (* Null step: drift the center toward the fresh duals — the
             center becomes a running average of the master's (often
             bang-bang) prices, so the next query is an interior,
             damped price vector (Wentges-style smoothing). *)
          lambda_center :=
            Array.mapi
              (fun i c -> (0.8 *. c) +. (0.2 *. prices.(i)))
              !lambda_center;
        let comb_usage = Array.make n_rows 0.0 in
        let fobj = ref 0.0 in
        Array.iteri
          (fun t wt ->
            if wt > 1e-12 then begin
              fobj := !fobj +. (wt *. (!columns).(t).pt.Engine.obj);
              Sparse.add_into comb_usage wt (!columns).(t).pt.Engine.usage
            end)
          w;
        frac_obj := !fobj;
        frac_viol := Engine.max_violation ~capacities comb_usage;
        (* Penalized master value, for stall detection: overflow billed
           at [pen] per unit of relative excess on each row. *)
        let master_value =
          let ov = ref 0.0 in
          Array.iteri
            (fun i u ->
              let r = (u -. capacities.(i)) /. capacities.(i) in
              if r > 0.0 then ov := !ov +. r)
            comb_usage;
          !fobj +. (!pen *. !ov)
        in
        let rel_impr =
          (!prev_master_value -. master_value)
          /. Float.max 1.0 (Float.abs master_value)
        in
        if Float.abs rel_impr < 1e-5 then incr stall else stall := 0;
        prev_master_value := master_value;
        let gap =
          if !best_lb > 0.0 then (!frac_obj -. !best_lb) /. !best_lb
          else infinity
        in
        history := (!frac_obj, !best_lb, !frac_viol) :: !history;
        Obs.push "decomp/pass/objective" !frac_obj;
        Obs.push "decomp/pass/lower_bound" !best_lb;
        Obs.push "decomp/pass/violation" !frac_viol;
        Obs.push "decomp/pass/gap" gap;
        Obs.push "decomp/pass/stab_weight" !beta;
        Obs.push "decomp/pass/columns" (float_of_int (Array.length !columns));
        Log.debug (fun m ->
            m "pass %d: obj=%.6g lb=%.6g viol=%.4f gap=%.4f beta=%.2f cols=%d"
              !passes !frac_obj !best_lb !frac_viol gap !beta
              (Array.length !columns));
        if !frac_viol <= epsilon && gap <= epsilon then begin
          if !passes_to_gap < 0 then passes_to_gap := !passes;
          converged := true
        end
        else if !frac_viol <= epsilon && !stall >= 3 then
          (* Feasible and the master has stopped moving: the model is
             primal-converged; the remaining gap is the (known-loose)
             dual-ascent bound, not missing columns. *)
          converged := true
        else if
          !frac_viol > epsilon
          && !passes mod 5 = 0
          && !frac_viol > 0.9 *. !viol_anchor
        then begin
          (* Violation barely moved over the last five passes: the
             overflow price is too cheap to force the mix under the
             caps. Raise it (widening the dual box) and keep cutting. *)
          Obs.incr "decomp/pen_raises";
          pen := !pen *. 1.5;
          prev_master_value := infinity
        end;
        if !passes mod 5 = 0 then viol_anchor := !frac_viol;
        (* Prune zero-weight columns — except this pass's, which the
           master has priced but the next query has not yet reacted to.
           Convexity keeps at least one live column per block. *)
        if not !converged then begin
          let keep =
            Array.mapi
              (fun t c -> (!weights).(t) > 1e-9 || c.born >= !passes)
              !columns
          in
          let n_keep = Array.fold_left (fun a k -> if k then a + 1 else a) 0 keep in
          let n_cols = Array.length !columns in
          if n_keep < n_cols then begin
            Obs.incr ~by:(n_cols - n_keep) "decomp/cols_dropped";
            let cols' = Array.make n_keep (!columns).(0) in
            let w' = Array.make n_keep 0.0 in
            let j = ref 0 in
            Array.iteri
              (fun t c ->
                if keep.(t) then begin
                  cols'.(!j) <- c;
                  w'.(!j) <- (!weights).(t);
                  incr j
                end)
              !columns;
            columns := cols';
            weights := w'
          end
        end
      done;
      if !passes_to_gap >= 0 then
        Obs.set_gauge "decomp/passes_to_gap" (float_of_int !passes_to_gap);
      (* Round to one integral point per block under the incumbent
         prices, exactly like the EPF engine's final snap. *)
      let chosen =
        round_blocks ~pool ~capacities ~pen:!pen ~prices:!lambda_center
          ~columns:!columns ~weights:!weights ~oracles
      in
      let outcome =
        Engine.integral_outcome ~capacities
          ~lower_bound:(if !best_lb = neg_infinity then 0.0 else !best_lb)
          ~passes:!passes ~pre_round_objective:!frac_obj
          ~pre_round_violation:!frac_viol
          ~history:(Array.of_list (List.rev !history))
          chosen
      in
      Log.info (fun m ->
          m "master done: %d passes, %d columns, obj=%.4g lb=%.4g viol=%.2f%%"
            !passes
            (Array.length !columns)
            outcome.Engine.objective outcome.Engine.lower_bound
            (100.0 *. outcome.Engine.max_violation));
      outcome)
