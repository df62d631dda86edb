(* Dense two-phase primal simplex.

   This is the repository's stand-in for the "state-of-the-art commercial
   LP solver" the paper compares against (CPLEX, Sec. V-C / Table III): an
   exact general-purpose solver whose time and memory grow superlinearly
   with instance size, in contrast to the decomposition approach. It is
   also the ground-truth oracle for unit tests of the EPF solver and the
   UFL subproblem solvers on small instances.

   Implementation notes: standard tableau form; phase 1 minimizes the
   sum of artificial variables, phase 2 the user objective. The
   entering column is Dantzig's, the one with the largest reduced cost
   (the lowest index on ties), until the phase has made
   [degenerate_limit] = 50 degenerate pivots (ratio at most epsilon);
   then Bland's rule, the lowest-index improving column, takes over for
   the rest of the phase. The leaving row is the minimum ratio, ties to
   the lowest basic variable, under either rule. This terminates:
   before the switch at most 50 pivots are degenerate and every other
   one strictly lowers the phase objective, so no basis repeats, and
   after it Bland's rule cannot cycle. Dantzig's rule alone can: on
   Beale's LP it is back at the starting basis after 6 pivots
   (test_lp.ml). The tableau is dense, (rows + 1) x (variables + slacks
   + artificials + 1) floats, but a pivot updates only the rows with a
   nonzero pivot-column entry, and in them only the pivot row's nonzero
   columns: it costs touched rows x pivot-row nonzeros. On the Benders
   restricted master of the solve-benders benchmark (about 73 rows x
   216 columns, seeds 1, 7 and 9) Dantzig's rule takes 128-129 pivots
   per solve, 47-48% of them in phase 1, and no solve reaches the
   fallback; a pivot touches 24% of the rows and 28% of the columns.
   Bland's rule alone took 248-250 pivots (49% in phase 1) touching 56%
   of the rows and 49% of the columns. *)

type rel = Le | Ge | Eq

type constr = {
  row : (int * float) list;  (* sparse (variable, coefficient) *)
  rel : rel;
  rhs : float;
}

type problem = {
  n_vars : int;
  minimize : float array;   (* objective coefficients, length n_vars *)
  constraints : constr list;
}

type result =
  | Optimal of {
      objective : float;
      solution : float array;
      duals : float array;
    }
  | Infeasible
  | Unbounded

type solved = { result : result; pivots : int; bland_fallback : bool }

let epsilon = 1e-9

(* Degenerate pivots a phase makes under Dantzig's entering rule before
   it falls back to Bland's for the rest of the phase. *)
let degenerate_limit = 50

(* Record in [nz], from slot [k] on, the columns [c] and above where
   [row] is nonzero; returns the number of slots filled. *)
let rec nonzeros row nz c k =
  if c = Array.length row then k
  else if row.(c) <> 0.0 then begin
    nz.(k) <- c;
    nonzeros row nz (c + 1) (k + 1)
  end
  else nonzeros row nz (c + 1) k

(* Pivot the tableau on (prow, pcol), with [nz] as workspace (one slot per
   column). Each other row with a nonzero pivot-column entry f is
   updated only over the pivot row's nonzero columns: a skipped cell
   would have computed x -. f *. (+/-0.), which is x up to the sign of a
   zero, and every test the solver makes ignores that sign. A pivot
   therefore costs (touched rows) x (pivot-row nonzeros), and allocates
   nothing. *)
let pivot tableau basis nz prow pcol =
  let pivot_row = tableau.(prow) in
  let p = pivot_row.(pcol) in
  for c = 0 to Array.length pivot_row - 1 do
    (* vodlint-disable unguarded-div — every pivot is selected with
       |p| > epsilon, so p is bounded away from 0. *)
    pivot_row.(c) <- pivot_row.(c) /. p
  done;
  let nnz = nonzeros pivot_row nz 0 0 in
  for r = 0 to Array.length tableau - 1 do
    if r <> prow then begin
      let row = tableau.(r) in
      let f = row.(pcol) in
      if Float.abs f > 0.0 then
        for k = 0 to nnz - 1 do
          let c = nz.(k) in
          row.(c) <- row.(c) -. (f *. pivot_row.(c))
        done
    end
  done;
  basis.(prow) <- pcol

(* Bland's entering column: the lowest index in [c, limit) whose entry
   in the objective row (kept as z - c) is positive; -1 if none is. *)
let rec bland obj c limit =
  if c >= limit then -1 else if obj.(c) > epsilon then c else bland obj (c + 1) limit

(* Dantzig's entering column: the one in [c, limit) with the largest
   positive objective-row entry (the largest reduced cost), the lowest
   index on ties, against the best column so far ([best], -1 for none);
   -1 if no entry is positive. Entries are compared in place, so the
   scan boxes no float. *)
let rec dantzig obj c limit best =
  if c >= limit then best
  else
    let best = if obj.(c) > epsilon && (best < 0 || obj.(c) > obj.(best)) then c else best in
    dantzig obj (c + 1) limit best

(* The leaving row for column [pcol], scanning rows [r, m) against
   the best row so far ([best], -1 for none): the minimum ratio of the
   rhs column [rhs] to a positive pivot-column entry, ties within
   epsilon going to the lowest basic variable; -1 if no entry is
   positive (the column is unbounded). The best ratio is recomputed from
   its row rather than carried, so the scan boxes no float. *)
let rec leaving tableau (basis : int array) ~pcol ~rhs ~m r best =
  if r = m then best
  else begin
    let row = tableau.(r) in
    let a = row.(pcol) in
    let best =
      if a > epsilon then begin
        let ratio = row.(rhs) /. a in
        (* Against no best row (ratio infinity), any finite ratio wins. *)
        if best < 0 then if ratio < infinity then r else best
        else begin
          let best_ratio = tableau.(best).(rhs) /. tableau.(best).(pcol) in
          if
            ratio < best_ratio -. epsilon
            || (Float.abs (ratio -. best_ratio) <= epsilon && basis.(r) < basis.(best))
          then r
          else best
        end
      end
      else best
    in
    leaving tableau basis ~pcol ~rhs ~m (r + 1) best
  end

(* Pivots made and whether a phase fell back to Bland's rule, counted
   over one solve. *)
type counts = { mutable made : int; mutable fell_back : bool }

(* Run one phase's simplex iterations on a tableau whose last row is the
   (negated reduced cost) objective row and last column is the rhs.
   Returns [false] if unbounded. The entering column is Dantzig's (the
   largest reduced cost) until the phase has made [degenerate_limit]
   degenerate pivots, whose ratio is at most epsilon ([degenerate]
   counts them), and Bland's (the lowest-index improving column) after
   that; the leaving row is the lowest-index tie among min ratios under
   either rule. [enter_limit] bounds the entering-column scan — phase 2
   must exclude the artificial columns or they can re-enter the basis
   and "solve" an infeasible relaxation. *)
let rec iterate tableau basis nz counts ~n_total ~enter_limit ~degenerate =
  let m = Array.length tableau - 1 in
  let obj = tableau.(m) in
  let pcol =
    if degenerate < degenerate_limit then dantzig obj 0 enter_limit (-1)
    else bland obj 0 enter_limit
  in
  if pcol < 0 then true
  else begin
    let prow = leaving tableau basis ~pcol ~rhs:n_total ~m 0 (-1) in
    if prow < 0 then false
    else begin
      let row = tableau.(prow) in
      (* Degenerate: the ratio rhs / entry (the entry is positive) is at
         most epsilon. *)
      let degenerate =
        if row.(n_total) <= epsilon *. row.(pcol) then degenerate + 1 else degenerate
      in
      if degenerate = degenerate_limit then counts.fell_back <- true;
      pivot tableau basis nz prow pcol;
      counts.made <- counts.made + 1;
      iterate tableau basis nz counts ~n_total ~enter_limit ~degenerate
    end
  end

let solve counts (p : problem) =
  let m = List.length p.constraints in
  (* Normalize: make all right-hand sides nonnegative. [flipped] remembers
     which rows were negated so their duals can be reported in the
     caller's original orientation. *)
  let flipped = Array.make m false in
  let constraints =
    List.mapi
      (fun r c ->
        if c.rhs < 0.0 then begin
          flipped.(r) <- true;
          {
            row = List.map (fun (v, a) -> (v, -.a)) c.row;
            rel = (match c.rel with Le -> Ge | Ge -> Le | Eq -> Eq);
            rhs = -.c.rhs;
          }
        end
        else c)
      p.constraints
  in
  (* Column layout: [0, n_vars) structural; then one slack/surplus per
     inequality; then one artificial per Ge/Eq row. *)
  let n_slack = List.length (List.filter (fun c -> c.rel <> Eq) constraints) in
  let n_art = List.length (List.filter (fun c -> c.rel <> Le) constraints) in
  let n_total = p.n_vars + n_slack + n_art in
  let tableau = Array.make_matrix (m + 1) (n_total + 1) 0.0 in
  let basis = Array.make m (-1) in
  let nz = Array.make (n_total + 1) 0 in
  let slack_idx = ref p.n_vars in
  let art_idx = ref (p.n_vars + n_slack) in
  let art_cols = ref [] in
  (* Where each row's dual price can be read off the final objective row:
     the column whose original tableau column is (+/-) the unit vector
     e_r with zero cost — slack for Le, surplus (negated) for Ge,
     artificial for Eq. After the phase-2 rebuild, obj_row.(j) equals
     y.A_j - c_j for every column, so that entry is (+/-) y_r. *)
  let dual_col = Array.make m (-1) in
  let dual_sign = Array.make m 1.0 in
  List.iteri
    (fun r c ->
      List.iter
        (fun (v, a) ->
          if v < 0 || v >= p.n_vars then invalid_arg "Simplex.solve: variable out of range";
          tableau.(r).(v) <- tableau.(r).(v) +. a)
        c.row;
      tableau.(r).(n_total) <- c.rhs;
      (match c.rel with
      | Le ->
          tableau.(r).(!slack_idx) <- 1.0;
          basis.(r) <- !slack_idx;
          dual_col.(r) <- !slack_idx;
          incr slack_idx
      | Ge ->
          tableau.(r).(!slack_idx) <- -1.0;
          dual_col.(r) <- !slack_idx;
          dual_sign.(r) <- -1.0;
          incr slack_idx;
          tableau.(r).(!art_idx) <- 1.0;
          basis.(r) <- !art_idx;
          art_cols := !art_idx :: !art_cols;
          incr art_idx
      | Eq ->
          tableau.(r).(!art_idx) <- 1.0;
          basis.(r) <- !art_idx;
          dual_col.(r) <- !art_idx;
          art_cols := !art_idx :: !art_cols;
          incr art_idx))
    constraints;
  let obj_row = tableau.(m) in
  (* Phase 1: minimize the sum of artificials. Objective row holds z - c
     form: start with -sum of artificial columns, then add rows with
     artificial basics to zero out their reduced costs. *)
  if n_art > 0 then begin
    List.iter (fun c -> obj_row.(c) <- -1.0) !art_cols;
    Array.iteri
      (fun r b ->
        if r < m && List.mem b !art_cols then
          for c = 0 to n_total do
            obj_row.(c) <- obj_row.(c) +. tableau.(r).(c)
          done)
      basis;
    if not (iterate tableau basis nz counts ~n_total ~enter_limit:n_total ~degenerate:0) then
      (* Phase 1 objective is bounded below by 0; unbounded is impossible
         unless numerics break. *)
      invalid_arg "Simplex.solve: phase 1 reported unbounded";
    if tableau.(m).(n_total) > 1e-6 then raise Exit
  end;
  (* Drive any artificial still in the basis out (degenerate rows). *)
  Array.iteri
    (fun r b ->
      if r < m && b >= p.n_vars + n_slack then begin
        let found = ref false in
        let c = ref 0 in
        while (not !found) && !c < p.n_vars + n_slack do
          if Float.abs tableau.(r).(!c) > epsilon then begin
            pivot tableau basis nz r !c;
            counts.made <- counts.made + 1;
            found := true
          end;
          incr c
        done
        (* If no pivot exists the row is all-zero (redundant); the
           artificial stays basic at value 0, harmless. *)
      end)
    basis;
  (* Phase 2: rebuild the objective row as z - c and cancel the reduced
     costs of the current basic variables (obj := obj - obj(b) * row_b,
     which zeroes column b since row_b has a unit pivot there). *)
  for c = 0 to n_total do
    obj_row.(c) <- 0.0
  done;
  for v = 0 to p.n_vars - 1 do
    obj_row.(v) <- -.p.minimize.(v)
  done;
  Array.iteri
    (fun r b ->
      if r < m then begin
        let f = obj_row.(b) in
        if Float.abs f > 0.0 then
          for c = 0 to n_total do
            obj_row.(c) <- obj_row.(c) -. (f *. tableau.(r).(c))
          done
      end)
    basis;
  if
    not
      (iterate tableau basis nz counts ~n_total ~enter_limit:(p.n_vars + n_slack)
         ~degenerate:0)
  then Unbounded
  else begin
    let solution = Array.make p.n_vars 0.0 in
    Array.iteri
      (fun r b -> if r < m && b < p.n_vars then solution.(b) <- tableau.(r).(n_total))
      basis;
    let objective = ref 0.0 in
    for v = 0 to p.n_vars - 1 do
      objective := !objective +. (p.minimize.(v) *. solution.(v))
    done;
    (* Dual prices in the caller's original row orientation. Pivots keep
       every column of the tableau current (including artificials), so
       the objective-row entries at [dual_col] are exact. Rows negated
       during normalization flip back here. *)
    let duals =
      Array.init m (fun r ->
          let y = dual_sign.(r) *. obj_row.(dual_col.(r)) in
          if flipped.(r) then -.y else y)
    in
    Optimal { objective = !objective; solution; duals }
  end

let solve_with_stats p =
  let counts = { made = 0; fell_back = false } in
  let result = try solve counts p with Exit -> Infeasible in
  { result; pivots = counts.made; bland_fallback = counts.fell_back }

let solve p = (solve_with_stats p).result
