(* Tests for the simplex reference solver: known LPs, degenerate cases,
   randomized comparison against brute-force vertex enumeration on
   2-variable instances, equivalence with the dense-pivot simplex on
   random degenerate LPs, agreement with Bland's rule throughout, and
   Beale's cycling LP, on which the largest-coefficient rule alone
   cycles and the Bland fallback does not. *)

module S = Vod_lp.Simplex

let solve_opt p =
  match S.solve p with
  | S.Optimal { objective; solution; _ } -> (objective, solution)
  | S.Infeasible -> Alcotest.fail "unexpected infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected unbounded"

let solve_duals p =
  match S.solve p with
  | S.Optimal { objective; solution; duals } -> (objective, solution, duals)
  | S.Infeasible -> Alcotest.fail "unexpected infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected unbounded"

(* Row activity a.x for a sparse constraint row at point [x]. *)
let activity row x =
  List.fold_left (fun acc (v, a) -> acc +. (a *. x.(v))) 0.0 row

(* The dual contract from the mli: strong duality, sign conventions per
   relation, and complementary slackness — all in the caller's original
   row orientation. *)
let check_dual_contract ?(tol = 1e-6) p =
  let objective, solution, duals = solve_duals p in
  Alcotest.(check int)
    "one dual per constraint"
    (List.length p.S.constraints)
    (Array.length duals);
  let dual_obj =
    List.fold_left (fun acc (c, y) -> acc +. (c.S.rhs *. y)) 0.0
      (List.combine p.S.constraints (Array.to_list duals))
  in
  Alcotest.(check (float tol)) "strong duality" objective dual_obj;
  List.iteri
    (fun i c ->
      let y = duals.(i) in
      (match c.S.rel with
      | S.Le ->
          Alcotest.(check bool)
            (Printf.sprintf "row %d: Le dual nonpositive" i)
            true (y <= tol)
      | S.Ge ->
          Alcotest.(check bool)
            (Printf.sprintf "row %d: Ge dual nonnegative" i)
            true (y >= -.tol)
      | S.Eq -> ());
      let slack = c.S.rhs -. activity c.S.row solution in
      Alcotest.(check (float tol))
        (Printf.sprintf "row %d: complementary slackness" i)
        0.0 (y *. slack))
    p.S.constraints;
  (objective, solution, duals)

let check_obj = Alcotest.(check (float 1e-6))

let basic_le () =
  (* min -x - y  s.t. x + y <= 4, x <= 2 -> x=2, y=2, obj=-4 *)
  let p =
    {
      S.n_vars = 2;
      minimize = [| -1.0; -1.0 |];
      constraints =
        [
          { S.row = [ (0, 1.0); (1, 1.0) ]; rel = S.Le; rhs = 4.0 };
          { S.row = [ (0, 1.0) ]; rel = S.Le; rhs = 2.0 };
        ];
    }
  in
  let obj, sol = solve_opt p in
  check_obj "objective" (-4.0) obj;
  check_obj "x" 2.0 sol.(0);
  check_obj "y" 2.0 sol.(1)

let with_equality () =
  (* min x + 2y  s.t. x + y = 3, y >= 1 -> x=2, y=1, obj=4 *)
  let p =
    {
      S.n_vars = 2;
      minimize = [| 1.0; 2.0 |];
      constraints =
        [
          { S.row = [ (0, 1.0); (1, 1.0) ]; rel = S.Eq; rhs = 3.0 };
          { S.row = [ (1, 1.0) ]; rel = S.Ge; rhs = 1.0 };
        ];
    }
  in
  let obj, sol = solve_opt p in
  check_obj "objective" 4.0 obj;
  check_obj "x" 2.0 sol.(0);
  check_obj "y" 1.0 sol.(1)

let infeasible_detected () =
  let p =
    {
      S.n_vars = 1;
      minimize = [| 1.0 |];
      constraints =
        [
          { S.row = [ (0, 1.0) ]; rel = S.Le; rhs = 1.0 };
          { S.row = [ (0, 1.0) ]; rel = S.Ge; rhs = 2.0 };
        ];
    }
  in
  match S.solve p with
  | S.Infeasible -> ()
  | S.Optimal _ | S.Unbounded -> Alcotest.fail "expected infeasible"

let unbounded_detected () =
  let p =
    {
      S.n_vars = 1;
      minimize = [| -1.0 |];
      constraints = [ { S.row = [ (0, 1.0) ]; rel = S.Ge; rhs = 0.0 } ];
    }
  in
  match S.solve p with
  | S.Unbounded -> ()
  | S.Optimal _ | S.Infeasible -> Alcotest.fail "expected unbounded"

let negative_rhs_normalized () =
  (* min x s.t. -x <= -3  (i.e. x >= 3) *)
  let p =
    {
      S.n_vars = 1;
      minimize = [| 1.0 |];
      constraints = [ { S.row = [ (0, -1.0) ]; rel = S.Le; rhs = -3.0 } ];
    }
  in
  let obj, _ = solve_opt p in
  check_obj "x = 3" 3.0 obj

let degenerate_no_cycle () =
  (* A classically degenerate instance; must terminate (Bland). *)
  let p =
    {
      S.n_vars = 3;
      minimize = [| -0.75; 150.0; -0.02 |];
      constraints =
        [
          { S.row = [ (0, 0.25); (1, -60.0); (2, -0.04) ]; rel = S.Le; rhs = 0.0 };
          { S.row = [ (0, 0.5); (1, -90.0); (2, -0.02) ]; rel = S.Le; rhs = 0.0 };
          { S.row = [ (2, 1.0) ]; rel = S.Le; rhs = 1.0 };
        ];
    }
  in
  let obj, _ = solve_opt p in
  Alcotest.(check bool) "finite optimum" true (Float.is_finite obj)

let duals_basic_le () =
  (* min -x - y s.t. x + y <= 4, x <= 2: both rows bind; y = (-1, 0)
     by inspection of the dual (max -4y1 - 2y2, y <= 0, y1+y2 <= -1,
     y1 <= -1). *)
  let p =
    {
      S.n_vars = 2;
      minimize = [| -1.0; -1.0 |];
      constraints =
        [
          { S.row = [ (0, 1.0); (1, 1.0) ]; rel = S.Le; rhs = 4.0 };
          { S.row = [ (0, 1.0) ]; rel = S.Le; rhs = 2.0 };
        ];
    }
  in
  let _, _, duals = check_dual_contract p in
  check_obj "binding row price" (-1.0) duals.(0);
  check_obj "slack-free second row" 0.0 duals.(1)

let duals_negative_rhs () =
  (* min x s.t. -x <= -3: reported in the original orientation, so the
     Le row keeps a nonpositive dual (-1) even though it is solved
     internally as x >= 3 with dual +1. *)
  let p =
    {
      S.n_vars = 1;
      minimize = [| 1.0 |];
      constraints = [ { S.row = [ (0, -1.0) ]; rel = S.Le; rhs = -3.0 } ];
    }
  in
  let _, _, duals = check_dual_contract p in
  check_obj "flipped row dual" (-1.0) duals.(0)

let duals_equality_mix () =
  (* The with_equality instance: x + y = 3 (free dual), y >= 1. At the
     optimum x=2, y=1: dual of the Eq row is the marginal cost of one
     more unit of rhs (=1, routed through x), the Ge row prices y's
     excess cost (2 - 1 = 1). *)
  let p =
    {
      S.n_vars = 2;
      minimize = [| 1.0; 2.0 |];
      constraints =
        [
          { S.row = [ (0, 1.0); (1, 1.0) ]; rel = S.Eq; rhs = 3.0 };
          { S.row = [ (1, 1.0) ]; rel = S.Ge; rhs = 1.0 };
        ];
    }
  in
  let _, _, duals = check_dual_contract p in
  check_obj "equality row price" 1.0 duals.(0);
  check_obj "lower-bound row price" 1.0 duals.(1)

let duals_transport_contract () =
  (* Degenerate-prone assignment LP: exact prices are not unique, so
     only the contract (strong duality + signs + slackness) is
     asserted. *)
  let p =
    {
      S.n_vars = 4;
      minimize = [| 1.0; 3.0; 2.0; 1.0 |];
      constraints =
        [
          { S.row = [ (0, 1.0); (1, 1.0) ]; rel = S.Eq; rhs = 1.0 };
          { S.row = [ (2, 1.0); (3, 1.0) ]; rel = S.Eq; rhs = 1.0 };
          { S.row = [ (0, 1.0); (2, 1.0) ]; rel = S.Le; rhs = 1.0 };
          { S.row = [ (1, 1.0); (3, 1.0) ]; rel = S.Le; rhs = 1.0 };
        ];
    }
  in
  ignore (check_dual_contract p)

(* The full placement LP (Lp_check.build) of a 4-VHO ring, 6 videos. *)
let ring4_placement_lp () =
  let graph =
    Vod_topology.Graph.create ~name:"ring4" ~n:4
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
      ~populations:[| 4.0; 3.0; 2.0; 1.0 |]
  in
  let sc =
    Vod_core.Scenario.make ~days:7 ~requests_per_video_per_day:6.0 ~seed:5
      ~graph ~n_videos:6 ()
  in
  let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
  let inst =
    Vod_placement.Instance.create ~graph ~catalog:sc.Vod_core.Scenario.catalog
      ~demand
      ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:2.0)
      ~link_capacity_mbps:(Vod_placement.Instance.uniform_links graph 200.0)
      ()
  in
  Vod_placement.Lp_check.build inst

let duals_lp_check_residuals () =
  (* Duals of the full placement LP must satisfy the same contract:
     strong duality against the exact objective and zero
     complementary-slackness residuals row by row. This is the form the
     decomposition master consumes. *)
  ignore (check_dual_contract ~tol:1e-5 (ring4_placement_lp ()))

let duality_transport () =
  (* Tiny transportation problem; optimal value known by inspection.
     min 1*x00 + 3*x01 + 2*x10 + 1*x11
     s.t. x00+x01 = 1 ; x10+x11 = 1 ; x00+x10 <= 1 ; x01+x11 <= 1 *)
  let p =
    {
      S.n_vars = 4;
      minimize = [| 1.0; 3.0; 2.0; 1.0 |];
      constraints =
        [
          { S.row = [ (0, 1.0); (1, 1.0) ]; rel = S.Eq; rhs = 1.0 };
          { S.row = [ (2, 1.0); (3, 1.0) ]; rel = S.Eq; rhs = 1.0 };
          { S.row = [ (0, 1.0); (2, 1.0) ]; rel = S.Le; rhs = 1.0 };
          { S.row = [ (1, 1.0); (3, 1.0) ]; rel = S.Le; rhs = 1.0 };
        ];
    }
  in
  let obj, _ = solve_opt p in
  check_obj "assignment optimum" 2.0 obj

(* Random 2-variable LPs, checked against a fine grid scan of the feasible
   region (sound because optima of bounded LPs lie near vertices and the
   grid bound is only used as a one-sided sanity margin). *)
let prop_random_2var =
  QCheck.Test.make ~name:"simplex beats grid scan on random 2-var LPs" ~count:60
    QCheck.(
      quad (float_range 0.1 5.0) (float_range 0.1 5.0) (float_range 1.0 10.0)
        (float_range 1.0 10.0))
    (fun (c1, c2, b1, b2) ->
      let p =
        {
          S.n_vars = 2;
          minimize = [| -.c1; -.c2 |];
          constraints =
            [
              { S.row = [ (0, 1.0); (1, 2.0) ]; rel = S.Le; rhs = b1 };
              { S.row = [ (0, 2.0); (1, 1.0) ]; rel = S.Le; rhs = b2 };
            ];
        }
      in
      match S.solve p with
      | S.Optimal { objective; solution; duals } ->
          (* Feasibility of the returned point. *)
          let x = solution.(0) and y = solution.(1) in
          let feas =
            x >= -1e-9 && y >= -1e-9
            && x +. (2.0 *. y) <= b1 +. 1e-6
            && (2.0 *. x) +. y <= b2 +. 1e-6
          in
          (* Dual contract: strong duality, Le signs, slackness. *)
          let dual_ok =
            Float.abs ((duals.(0) *. b1) +. (duals.(1) *. b2) -. objective)
            <= 1e-5
            && duals.(0) <= 1e-9
            && duals.(1) <= 1e-9
            && Float.abs (duals.(0) *. (b1 -. x -. (2.0 *. y))) <= 1e-5
            && Float.abs (duals.(1) *. (b2 -. (2.0 *. x) -. y)) <= 1e-5
          in
          (* Grid scan lower bound on the best objective. *)
          let best = ref 0.0 in
          let steps = 60 in
          for i = 0 to steps do
            for j = 0 to steps do
              let gx = float_of_int i *. b2 /. (2.0 *. float_of_int steps) in
              let gy = float_of_int j *. b1 /. (2.0 *. float_of_int steps) in
              if gx +. (2.0 *. gy) <= b1 && (2.0 *. gx) +. gy <= b2 then begin
                let v = (-.c1 *. gx) -. (c2 *. gy) in
                if v < !best then best := v
              end
            done
          done;
          feas && dual_ok && objective <= !best +. 1e-6
      | S.Infeasible | S.Unbounded -> false)

(* The definition [S.solve] must reproduce: the dense-pivot simplex,
   which updates every column of every row with a nonzero pivot-column
   entry, under the same pivot rules. Kept here, not in lib/, as the
   equivalence reference for the sparse pivot-row elimination.
   [solve_with ~fallback_after] enters by Dantzig's rule until a phase
   has made [fallback_after] degenerate pivots and by Bland's after
   that: [solve] is [S.solve]'s rule (50), [solve_bland] (0) is Bland's
   rule throughout, the one the simplex used before. *)
module Dense_ref = struct
  open S

  let epsilon = 1e-9

  (* Pivot the tableau on (prow, pcol). *)
  let pivot tableau basis prow pcol =
    let ncols = Array.length tableau.(0) in
    let nrows = Array.length tableau in
    let p = tableau.(prow).(pcol) in
    for c = 0 to ncols - 1 do
      (* vodlint-disable unguarded-div — both callers select the pivot with
         |tableau.(prow).(pcol)| > epsilon, so p is bounded away from 0. *)
      tableau.(prow).(c) <- tableau.(prow).(c) /. p
    done;
    for r = 0 to nrows - 1 do
      if r <> prow then begin
        let f = tableau.(r).(pcol) in
        if Float.abs f > 0.0 then
          for c = 0 to ncols - 1 do
            tableau.(r).(c) <- tableau.(r).(c) -. (f *. tableau.(prow).(c))
          done
      end
    done;
    basis.(prow) <- pcol

  (* Entering column in the objective row (kept as z - c), among the
     columns below [enter_limit]: Bland's is the first positive entry,
     Dantzig's the largest (the first of equal ones); -1 if no entry is
     positive. *)
  let bland obj ~enter_limit =
    let enter = ref (-1) in
    (try
       for c = 0 to enter_limit - 1 do
         if obj.(c) > epsilon then begin
           enter := c;
           raise Exit
         end
       done
     with Exit -> ());
    !enter

  let dantzig obj ~enter_limit =
    let enter = ref (-1) in
    for c = 0 to enter_limit - 1 do
      if obj.(c) > epsilon && (!enter < 0 || obj.(c) > obj.(!enter)) then enter := c
    done;
    !enter

  (* Leaving row for column [pcol]: the minimum ratio of the rhs to a
     positive pivot-column entry, ties within epsilon going to the
     lowest basic variable; -1 if no entry is positive. *)
  let leaving tableau basis ~n_total pcol =
    let m = Array.length tableau - 1 in
    let best_row = ref (-1) and best_ratio = ref infinity in
    for r = 0 to m - 1 do
      let a = tableau.(r).(pcol) in
      if a > epsilon then begin
        let ratio = tableau.(r).(n_total) /. a in
        if
          ratio < !best_ratio -. epsilon
          || (Float.abs (ratio -. !best_ratio) <= epsilon
             && (!best_row < 0 || basis.(r) < basis.(!best_row)))
        then begin
          best_ratio := ratio;
          best_row := r
        end
      end
    done;
    !best_row

  (* Run one phase's simplex iterations on a tableau whose last row is
     the (negated reduced cost) objective row and last column is the
     rhs. Returns [false] if unbounded. A pivot is degenerate when its
     ratio is at most epsilon. [visit] sees the basis after every pivot.
     [enter_limit] bounds the entering-column scan — phase 2 must
     exclude the artificial columns or they can re-enter the basis and
     "solve" an infeasible relaxation. *)
  let iterate ?(visit = ignore) ~fallback_after tableau basis ~n_total ~enter_limit =
    let m = Array.length tableau - 1 in
    let obj = tableau.(m) in
    let degenerate = ref 0 in
    let rec loop () =
      let pcol =
        if !degenerate < fallback_after then dantzig obj ~enter_limit
        else bland obj ~enter_limit
      in
      if pcol < 0 then true
      else begin
        let prow = leaving tableau basis ~n_total pcol in
        if prow < 0 then false
        else begin
          if tableau.(prow).(n_total) <= epsilon *. tableau.(prow).(pcol) then
            incr degenerate;
          pivot tableau basis prow pcol;
          visit basis;
          loop ()
        end
      end
    in
    loop ()

  let solve_with ~fallback_after (p : problem) =
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
      if not (iterate ~fallback_after tableau basis ~n_total ~enter_limit:n_total) then
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
              pivot tableau basis r !c;
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
        (iterate ~fallback_after tableau basis ~n_total
           ~enter_limit:(p.n_vars + n_slack))
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

  let solve_with ~fallback_after p = try solve_with ~fallback_after p with Exit -> Infeasible
  let solve = solve_with ~fallback_after:50
  let solve_bland = solve_with ~fallback_after:0
end

(* Same outcome as the dense reference: the same constructor (or the same
   [Invalid_argument]); objective and every dual equal bit for bit; every
   solution entry equal under [Float.equal]. A skipped cell differs from
   the dense update at most in the sign of a zero, which [Float.equal]
   ignores and only solution entries can carry. *)
let same_as_dense_ref p =
  let outcome f = match f p with r -> Ok r | exception Invalid_argument s -> Error s in
  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  match (outcome S.solve, outcome Dense_ref.solve) with
  | Ok (S.Optimal a), Ok (S.Optimal b) ->
      same_bits a.objective b.objective
      && Array.length a.duals = Array.length b.duals
      && Array.for_all2 same_bits a.duals b.duals
      && Array.length a.solution = Array.length b.solution
      && Array.for_all2 Float.equal a.solution b.solution
  | Ok S.Infeasible, Ok S.Infeasible | Ok S.Unbounded, Ok S.Unbounded -> true
  | Error a, Error b -> String.equal a b
  | _ -> false

(* Random LP with 1-10 variables and 1-10 rows of mixed relation.
   Coefficients, costs and right-hand sides are small integers, so ties
   in the ratio test and degenerate pivots are common; some costs are
   zero, negative right-hand sides get their rows flipped, and a row may
   name a variable more than once. Three rows in four hold (tightly, or
   with slack 1) at a random integer point [x0], so about a third of the
   draws are optimal; the rest split between infeasible and unbounded. *)
let random_lp seed =
  let rng = Vod_util.Rng.create seed in
  let int_in lo hi = float_of_int (lo + Vod_util.Rng.int rng (hi - lo + 1)) in
  let n_vars = 1 + Vod_util.Rng.int rng 10 and m = 1 + Vod_util.Rng.int rng 10 in
  let minimize =
    Array.init n_vars (fun _ -> if Vod_util.Rng.int rng 3 = 0 then 0.0 else int_in (-3) 4)
  in
  let x0 = Array.init n_vars (fun _ -> int_in 0 2) in
  let constraints =
    List.init m (fun _ ->
        let terms = 1 + Vod_util.Rng.int rng (n_vars + 1) in
        let row = List.init terms (fun _ -> (Vod_util.Rng.int rng n_vars, int_in (-2) 3)) in
        let rel = match Vod_util.Rng.int rng 3 with 0 -> S.Le | 1 -> S.Ge | _ -> S.Eq in
        let at_x0 = List.fold_left (fun acc (v, a) -> acc +. (a *. x0.(v))) 0.0 row in
        let rhs =
          match (Vod_util.Rng.int rng 4, rel) with
          | 0, _ -> int_in (-3) 5
          | _, S.Le -> at_x0 +. int_in 0 1
          | _, S.Ge -> at_x0 -. int_in 0 1
          | _, S.Eq -> at_x0
        in
        { S.row; rel; rhs })
  in
  { S.n_vars; minimize; constraints }

(* simplex.mli's dual contract in sign and strong duality, to 1e-6
   relative to the objective (at least 1): Le duals <= 0, Ge duals >= 0,
   and sum duals.(i) *. rhs_i = objective. *)
let meets_dual_contract p objective duals =
  let tol = 1e-6 *. Float.max 1.0 (Float.abs objective) in
  Array.length duals = List.length p.S.constraints
  && Float.abs
       (List.fold_left ( +. ) 0.0
          (List.mapi (fun i c -> duals.(i) *. c.S.rhs) p.S.constraints)
       -. objective)
     <= tol
  && List.for_all Fun.id
       (List.mapi
          (fun i c ->
            match c.S.rel with
            | S.Le -> duals.(i) <= tol
            | S.Ge -> duals.(i) >= -.tol
            | S.Eq -> true)
          p.S.constraints)

(* Against Bland's rule throughout: the same status (or the same
   [Invalid_argument]); when optimal, objectives within 1e-9 relative
   (to at least 1) and both dual vectors meeting the contract. The
   vertices may differ: an LP can have several optima. *)
let same_as_bland_ref p =
  let outcome f = match f p with r -> Ok r | exception Invalid_argument s -> Error s in
  match (outcome S.solve, outcome Dense_ref.solve_bland) with
  | Ok (S.Optimal a), Ok (S.Optimal b) ->
      Float.abs (a.objective -. b.objective)
      <= 1e-9 *. Float.max 1.0 (Float.abs b.objective)
      && meets_dual_contract p a.objective a.duals
      && meets_dual_contract p b.objective b.duals
  | Ok S.Infeasible, Ok S.Infeasible | Ok S.Unbounded, Ok S.Unbounded -> true
  | Error a, Error b -> String.equal a b
  | _ -> false

let prop_matches_bland_ref =
  QCheck.Test.make ~name:"Dantzig pricing = Bland reference (objective, duals)"
    ~count:2000
    QCheck.(int_bound 1_000_000)
    (fun seed -> same_as_bland_ref (random_lp seed))

let placement_lp_matches_bland_ref () =
  Alcotest.(check bool) "same optimum" true (same_as_bland_ref (ring4_placement_lp ()))

(* Beale's (1955) cycling example: min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
   s.t. 1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 <= 0,
        1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 <= 0, x6 <= 1.
   Its optimum is -1/20 (x4 = 1/25, x6 = 1). The start is degenerate:
   both rows have rhs 0. *)
let beale =
  {
    S.n_vars = 4;
    minimize = [| -0.75; 150.0; -0.02; 6.0 |];
    constraints =
      [
        { S.row = [ (0, 0.25); (1, -60.0); (2, -0.04); (3, 9.0) ]; rel = S.Le; rhs = 0.0 };
        { S.row = [ (0, 0.5); (1, -90.0); (2, -0.02); (3, 3.0) ]; rel = S.Le; rhs = 0.0 };
        { S.row = [ (2, 1.0) ]; rel = S.Le; rhs = 1.0 };
      ];
  }

exception Revisited of int

(* The largest-coefficient rule alone cycles on Beale's LP: from the
   slack basis, a loop that never falls back revisits a basis within 50
   pivots, all of them degenerate (the objective never moves). The
   simplex, which falls back to Bland's rule after 50 degenerate pivots,
   reaches the optimum and reports the fallback. *)
let beale_cycles_without_fallback () =
  (* All rows are Le with rhs >= 0: the tableau is [A | I | b] over
     [-c | 0 | 0], in S.solve's column layout, on the slack basis. *)
  let n = beale.S.n_vars and m = List.length beale.S.constraints in
  let n_total = n + m in
  let tableau = Array.make_matrix (m + 1) (n_total + 1) 0.0 in
  List.iteri
    (fun r c ->
      List.iter (fun (v, a) -> tableau.(r).(v) <- a) c.S.row;
      tableau.(r).(n + r) <- 1.0;
      tableau.(r).(n_total) <- c.S.rhs)
    beale.S.constraints;
  Array.iteri (fun v c -> tableau.(m).(v) <- -.c) beale.S.minimize;
  let basis = Array.init m (fun r -> n + r) in
  let key b = List.sort compare (Array.to_list b) in
  let seen = ref [ key basis ] and pivots = ref 0 in
  let visit b =
    incr pivots;
    if List.mem (key b) !seen then raise (Revisited !pivots);
    if !pivots >= 50 then Alcotest.fail "no basis revisited in 50 pivots";
    seen := key b :: !seen
  in
  (match
     Dense_ref.iterate ~visit ~fallback_after:max_int tableau basis ~n_total
       ~enter_limit:n_total
   with
  | _ -> Alcotest.fail "the largest-coefficient loop terminated"
  | exception Revisited k ->
      Alcotest.(check bool) (Printf.sprintf "basis revisited after %d pivots" k) true (k <= 50);
      Alcotest.(check (float 0.0)) "objective never moved" 0.0 tableau.(m).(n_total));
  let solved = S.solve_with_stats beale in
  match solved.S.result with
  | S.Optimal { objective; solution; _ } ->
      check_obj "Beale optimum" (-0.05) objective;
      check_obj "x4" 0.04 solution.(0);
      check_obj "x6" 1.0 solution.(2);
      Alcotest.(check bool) "fell back to Bland's rule" true solved.S.bland_fallback;
      Alcotest.(check bool)
        (Printf.sprintf "%d pivots, past the 50 degenerate ones" solved.S.pivots)
        true (solved.S.pivots > 50)
  | S.Infeasible | S.Unbounded -> Alcotest.fail "Beale's LP is bounded and feasible"

(* On a nondegenerate LP Dantzig's rule alone finishes: two pivots, no
   fallback. *)
let stats_without_fallback () =
  let p =
    {
      S.n_vars = 2;
      minimize = [| -1.0; -1.0 |];
      constraints =
        [
          { S.row = [ (0, 1.0); (1, 1.0) ]; rel = S.Le; rhs = 4.0 };
          { S.row = [ (0, 1.0) ]; rel = S.Le; rhs = 2.0 };
        ];
    }
  in
  let solved = S.solve_with_stats p in
  Alcotest.(check int) "pivots" 2 solved.S.pivots;
  Alcotest.(check bool) "no fallback" false solved.S.bland_fallback

let prop_matches_dense_ref =
  QCheck.Test.make ~name:"sparse pivot = dense reference" ~count:2000
    QCheck.(int_bound 1_000_000)
    (fun seed -> same_as_dense_ref (random_lp seed))

let placement_lp_matches_dense_ref () =
  Alcotest.(check bool) "same result" true (same_as_dense_ref (ring4_placement_lp ()))

let suite =
  [
    Alcotest.test_case "basic <=" `Quick basic_le;
    Alcotest.test_case "equality + >=" `Quick with_equality;
    Alcotest.test_case "infeasible" `Quick infeasible_detected;
    Alcotest.test_case "unbounded" `Quick unbounded_detected;
    Alcotest.test_case "negative rhs" `Quick negative_rhs_normalized;
    Alcotest.test_case "degenerate (Bland)" `Quick degenerate_no_cycle;
    Alcotest.test_case "transport duality" `Quick duality_transport;
    Alcotest.test_case "duals: basic <=" `Quick duals_basic_le;
    Alcotest.test_case "duals: flipped rhs orientation" `Quick duals_negative_rhs;
    Alcotest.test_case "duals: equality + >=" `Quick duals_equality_mix;
    Alcotest.test_case "duals: transport contract" `Quick duals_transport_contract;
    Alcotest.test_case "duals: placement LP residuals" `Quick duals_lp_check_residuals;
    QCheck_alcotest.to_alcotest prop_random_2var;
    Alcotest.test_case "placement LP = dense reference" `Quick
      placement_lp_matches_dense_ref;
    QCheck_alcotest.to_alcotest prop_matches_dense_ref;
    Alcotest.test_case "placement LP = Bland reference" `Quick
      placement_lp_matches_bland_ref;
    QCheck_alcotest.to_alcotest prop_matches_bland_ref;
    Alcotest.test_case "Beale: largest coefficient cycles, solve does not" `Quick
      beale_cycles_without_fallback;
    Alcotest.test_case "pivot stats: no fallback" `Quick stats_without_fallback;
  ]
