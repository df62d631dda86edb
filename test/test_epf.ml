(* Tests for the EPF engine on hand-built block problems with known
   optima, including a randomized cross-check against the simplex
   reference. *)

module E = Vod_epf.Engine
module C = Vod_epf.Combo
module Sp = Vod_epf.Sparse
module S = Vod_lp.Simplex

let check_float tol = Alcotest.(check (float tol))

(* --- Sparse vector algebra --- *)

let sparse_ops () =
  let x = Sp.of_assoc [ (3, 1.0); (1, 2.0); (3, 0.5) ] in
  Alcotest.(check int) "dedup" 2 (Sp.length x);
  Alcotest.(check (array int)) "sorted support" [| 1; 3 |] (Sp.support x);
  let y = Sp.of_assoc [ (1, 1.0); (2, 4.0) ] in
  let z = Sp.axpby 2.0 x 1.0 y in
  let dense = Array.make 5 0.0 in
  Sp.add_into dense 1.0 z;
  Alcotest.(check (array (float 1e-9))) "axpby" [| 0.0; 5.0; 4.0; 3.0; 0.0 |] dense;
  let prices = [| 0.0; 1.0; 0.5; 2.0; 0.0 |] in
  check_float 1e-9 "dot" (5.0 +. 2.0 +. 6.0) (Sp.dot prices z);
  let d = Sp.sub x x in
  Alcotest.(check int) "self-sub empty" 0 (Sp.length d)

(* Duplicate rows that cancel leave no entry: a canonical vector holds no
   zero, so structural equality stays an exact same-vector test. *)
let sparse_cancelling_duplicates () =
  let x = Sp.of_assoc [ (1, 1.0); (1, -1.0) ] in
  Alcotest.(check int) "cancelled row dropped" 0 (Sp.length x);
  Alcotest.(check bool) "equals empty" true (x = Sp.empty);
  let y = Sp.of_assoc [ (1, 1.0); (2, 3.0); (1, -1.0); (0, 0.0) ] in
  Alcotest.(check (array int)) "only the nonzero row" [| 2 |] (Sp.support y);
  Alcotest.(check (array (float 0.0))) "its value" [| 3.0 |] y.Sp.vals;
  let z = Sp.of_entries [| 4; 4; 3 |] [| 2.0; -2.0; 0.0 |] in
  Alcotest.(check int) "of_entries drops them too" 0 (Sp.length z)

(* The association-array [Sparse] that the flat one must reproduce bit for
   bit: the definition before the rows and values were split into two
   arrays, copied verbatim, comments included ([empty] and [scale],
   which nothing compares, left out). Kept here, not in lib/, as the
   equivalence reference. *)
module Sparse_ref = struct
  type t = (int * float) array

  let of_assoc l =
    (* Combine duplicate rows, drop zeros, sort by row. *)
    let tbl = Hashtbl.create (List.length l) in
    List.iter
      (fun (r, v) ->
        if v <> 0.0 then
          let cur = Option.value ~default:0.0 (Hashtbl.find_opt tbl r) in
          Hashtbl.replace tbl r (cur +. v))
      l;
    let arr = Array.of_seq (Hashtbl.to_seq tbl) in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
    arr

  (* [axpby a x b y] = a*x + b*y as a fresh sorted sparse vector. *)
  let axpby a (x : t) b (y : t) : t =
    let nx = Array.length x and ny = Array.length y in
    let out = ref [] in
    let push r v = if Float.abs v > 1e-15 then out := (r, v) :: !out in
    let i = ref 0 and j = ref 0 in
    while !i < nx || !j < ny do
      if !j >= ny || (!i < nx && fst x.(!i) < fst y.(!j)) then begin
        let r, v = x.(!i) in
        push r (a *. v);
        incr i
      end
      else if !i >= nx || fst y.(!j) < fst x.(!i) then begin
        let r, v = y.(!j) in
        push r (b *. v);
        incr j
      end
      else begin
        let r, vx = x.(!i) and _, vy = y.(!j) in
        push r ((a *. vx) +. (b *. vy));
        incr i;
        incr j
      end
    done;
    let arr = Array.of_list !out in
    Array.sort (fun (p, _) (q, _) -> Int.compare p q) arr;
    arr

  let sub x y = axpby 1.0 x (-1.0) y

  (* Add [x] into the dense accumulator [acc], scaled by [a]. *)
  let add_into acc a (x : t) =
    Array.iter (fun (r, v) -> acc.(r) <- acc.(r) +. (a *. v)) x

  (* Dot product with a dense price vector. *)
  let dot prices (x : t) =
    Array.fold_left (fun s (r, v) -> s +. (prices.(r) *. v)) 0.0 x

  let iter f (x : t) = Array.iter (fun (r, v) -> f r v) x

  let support (x : t) = Array.map fst x
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Same rows, and values equal under [Int64.bits_of_float]. *)
let same_vector (x : Sp.t) (r : Sparse_ref.t) =
  Array.length r = Sp.length x
  && Array.for_all2
       (fun (row, v) (row', v') -> row = row' && same_bits v v')
       (Array.combine x.Sp.rows x.Sp.vals)
       r

let to_ref (x : Sp.t) : Sparse_ref.t = Array.combine x.Sp.rows x.Sp.vals

(* A random association list over rows 0-9: duplicate rows are common and
   a quarter of the lists are empty. Values mix exact zeros, magnitudes
   on both sides of the 1e-15 drop rule, small integers (so duplicates
   cancel) and ordinary floats of either sign. *)
let random_assoc rng =
  let draw () =
    match Vod_util.Rng.int rng 7 with
    | 0 -> 0.0
    | 1 -> if Vod_util.Rng.bool rng then 1e-15 else -1e-15
    | 2 -> (4e-15 *. Vod_util.Rng.float rng) -. 2e-15
    | 3 -> float_of_int (Vod_util.Rng.int rng 5 - 2)
    | _ -> 10.0 *. (Vod_util.Rng.float rng -. 0.3)
  in
  if Vod_util.Rng.int rng 4 = 0 then []
  else List.init (Vod_util.Rng.int rng 16) (fun _ -> (Vod_util.Rng.int rng 10, draw ()))

(* The reference keeps a row whose duplicates cancel as an explicit 0.0;
   the flat constructor drops it. Nothing else may differ. *)
let drop_zeros (r : Sparse_ref.t) =
  Array.of_list (List.filter (fun (_, v) -> v <> 0.0) (Array.to_list r))

let prop_sparse_matches_ref =
  QCheck.Test.make ~name:"flat Sparse is bit-identical to the assoc-array reference"
    ~count:2000 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Vod_util.Rng.create seed in
      let lx = random_assoc rng and ly = random_assoc rng in
      let x = Sp.of_assoc lx and y = Sp.of_assoc ly in
      let rx = to_ref x and ry = to_ref y in
      let coef () =
        match Vod_util.Rng.int rng 5 with
        | 0 -> 1.0
        | 1 -> -1.0
        | 2 -> 0.0
        | _ -> Vod_util.Rng.float rng
      in
      let a = coef () and b = coef () in
      let prices = Array.init 10 (fun _ -> Vod_util.Rng.float rng) in
      let acc () = Array.init 10 (fun i -> float_of_int i /. 3.0) in
      let acc_new = acc () and acc_ref = acc () in
      Sp.add_into acc_new a x;
      Sparse_ref.add_into acc_ref a rx;
      let entries = Array.of_list lx in
      let seen_new = ref [] and seen_ref = ref [] in
      Sp.iter (fun r v -> seen_new := (r, Int64.bits_of_float v) :: !seen_new) x;
      Sparse_ref.iter (fun r v -> seen_ref := (r, Int64.bits_of_float v) :: !seen_ref) rx;
      same_vector x (drop_zeros (Sparse_ref.of_assoc lx))
      && same_vector
           (Sp.of_entries (Array.map fst entries) (Array.map snd entries))
           (drop_zeros (Sparse_ref.of_assoc (List.rev lx)))
      && same_vector (Sp.axpby a x b y) (Sparse_ref.axpby a rx b ry)
      && same_vector (Sp.sub x y) (Sparse_ref.sub rx ry)
      && Array.for_all2 same_bits acc_new acc_ref
      && same_bits (Sp.dot prices x) (Sparse_ref.dot prices rx)
      && !seen_new = !seen_ref
      && Sp.support x = Sparse_ref.support rx)

(* The list combination that [Combo] must reproduce bit for bit: the
   engine's per-block state before the column store (a (point, weight)
   list, newest first, with the block's usage beside it) and the list
   code of [step_block], [prune_combo] and [recompute], copied verbatim,
   comments included, cut down to one block. Kept here, not in lib/, as
   the equivalence reference. *)
module Combo_ref = struct
  type 'a block = {
    mutable combo : ('a E.point * float) list;
    mutable blk_usage : Sp.t;
  }

  (* Drop negligible-weight points and cap the combination size (keeping the
     heaviest); renormalizing keeps the iterate a convex combination of
     block points, i.e. inside the block polytope. Without the cap, small
     line-search steps would grow combos by one point per pass forever. *)
  let max_combo_points = 20

  let prune_combo combo =
    let kept = List.filter (fun (_, w) -> w > 2e-3) combo in
    let kept =
      if List.length kept <= max_combo_points then kept
      else begin
        let sorted = List.sort (fun (_, w1) (_, w2) -> Float.compare w2 w1) kept in
        List.filteri (fun i _ -> i < max_combo_points) sorted
      end
    in
    let total = List.fold_left (fun s (_, w) -> s +. w) 0.0 kept in
    if total <= 0.0 then combo
    else List.map (fun (p, w) -> (p, w /. total)) kept

  (* [step_block]'s update once the line search has picked [tau]; returns
     the epf/combo/pruned_points increment. *)
  let step b (hat : _ E.point) tau =
    let combo = List.map (fun (p, w) -> (p, w *. (1.0 -. tau))) b.combo in
    let pruned = prune_combo ((hat, tau) :: combo) in
    b.combo <- pruned;
    b.blk_usage <- Sp.axpby (1.0 -. tau) b.blk_usage tau hat.E.usage;
    List.length combo + 1 - List.length pruned

  (* [recompute] for one block; returns the block objective. *)
  let recompute b =
    let u = ref Sp.empty and o = ref 0.0 in
    List.iter
      (fun ((pt : _ E.point), w) ->
        u := Sp.axpby 1.0 !u w pt.E.usage;
        o := !o +. (w *. pt.E.obj))
      b.combo;
    b.blk_usage <- !u;
    !o
end

let same_sparse (x : Sp.t) (y : Sp.t) =
  x.Sp.rows = y.Sp.rows
  && Array.length x.Sp.vals = Array.length y.Sp.vals
  && Array.for_all2 same_bits x.Sp.vals y.Sp.vals

(* Same columns in the same order (weight, objective and usage bits, and
   payload) and the same block usage. *)
let same_combo (c : int C.t) (r : int Combo_ref.block) =
  C.length c = List.length r.Combo_ref.combo
  && List.for_all Fun.id
       (List.mapi
          (fun q ((pt : int E.point), w) ->
            let p = C.point c q in
            same_bits (C.weight c q) w
            && same_bits p.E.obj pt.E.obj
            && same_sparse p.E.usage pt.E.usage
            && p.E.data = pt.E.data && C.data c q = pt.E.data)
          r.Combo_ref.combo)
  && same_sparse
       (Sp.of_entries (Array.sub c.C.agg_rows 0 c.C.agg_n) (Array.sub c.C.agg_vals 0 c.C.agg_n))
       r.Combo_ref.blk_usage

(* One random run of the store and the reference from the same start
   through the same (point, tau) sequence, with recomputes mixed in.
   Points have 0-9 entries over rows 0-9, some of magnitude near the
   1e-15 drop rule. The start and the steps follow one of four shapes
   (seed mod 4): a singleton and steps of 1-5% (more than 20 columns
   pass the threshold, so the weight sort runs); 21-24 columns of equal
   weight (the sort keeps their order); 1-25 columns of weight 1e-3 and
   steps of at most 2e-3 (no weight passes, and the combination grows
   unpruned past 20 columns), then one large step; or random weights and
   steps. Returns whether every result matched, with the three coverage
   flags (sort ran, sort saw a weight tie, no weight passed). *)
let combo_run seed =
  let rng = Vod_util.Rng.create seed in
  let shape = seed mod 4 in
  let next_id = ref 0 in
  let point () =
    incr next_id;
    let entry () =
      let v =
        match Vod_util.Rng.int rng 4 with
        | 0 -> 1e-15 *. (1.0 +. Vod_util.Rng.float rng)
        | 1 -> float_of_int (1 + Vod_util.Rng.int rng 3)
        | _ -> 10.0 *. (Vod_util.Rng.float rng -. 0.3)
      in
      (Vod_util.Rng.int rng 10, v)
    in
    {
      E.obj = 100.0 *. Vod_util.Rng.float rng;
      usage = Sp.of_assoc (List.init (Vod_util.Rng.int rng 10) (fun _ -> entry ()));
      data = !next_id;
    }
  in
  let start =
    match shape with
    | 0 -> [ (point (), 1.0) ]
    | 1 ->
        let k = 21 + Vod_util.Rng.int rng 4 in
        List.init k (fun _ -> (point (), 1.0 /. float_of_int k))
    | 2 -> List.init (1 + Vod_util.Rng.int rng 25) (fun _ -> (point (), 1e-3))
    | _ -> List.init (1 + Vod_util.Rng.int rng 6) (fun _ -> (point (), Vod_util.Rng.float rng))
  in
  let c = C.of_list start in
  let r = { Combo_ref.combo = start; blk_usage = Sp.empty } in
  let w = C.work () in
  let ok = ref (same_combo c r) in
  let sorted = ref false and tie = ref false and unpruned = ref false in
  let n_ops = 5 + Vod_util.Rng.int rng 40 in
  for op = 1 to n_ops do
    if Vod_util.Rng.int rng 5 = 0 then begin
      let o = C.recompute w c and o_ref = Combo_ref.recompute r in
      ok := !ok && same_bits o o_ref
    end
    else begin
      let tau =
        match shape with
        | 0 -> 0.01 +. (0.04 *. Vod_util.Rng.float rng)
        | 1 -> if Vod_util.Rng.bool rng then 0.01 else 0.5
        | 2 -> if op = n_ops then 0.5 else 2e-3 *. Vod_util.Rng.float rng
        | _ -> (
            match Vod_util.Rng.int rng 6 with
            | 0 -> 1.0
            | 1 -> 0.5
            | 2 -> 2e-3
            | 3 -> 1e-3
            | _ -> Vod_util.Rng.float rng)
      in
      (* Sometimes the oracle returns a point the combination holds. *)
      let hat =
        if Vod_util.Rng.int rng 4 = 0 then
          C.point c (Vod_util.Rng.int rng (C.length c))
        else point ()
      in
      let candidates =
        (hat, tau) :: List.map (fun (p, wt) -> (p, wt *. (1.0 -. tau))) r.Combo_ref.combo
      in
      let passing = List.filter (fun (_, wt) -> wt > 2e-3) candidates in
      if List.length passing > 20 then begin
        sorted := true;
        let ws = List.map snd passing in
        if List.length (List.sort_uniq Float.compare ws) < List.length ws then tie := true
      end;
      if passing = [] then unpruned := true;
      let pruned = C.step w c ~tau hat and pruned_ref = Combo_ref.step r hat tau in
      ok := !ok && pruned = pruned_ref
    end;
    ok := !ok && same_combo c r
  done;
  (!ok, !sorted, !tie, !unpruned)

let prop_combo_matches_ref =
  QCheck.Test.make ~name:"column store is bit-identical to the list combination"
    ~count:1000 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let ok, _, _, _ = combo_run seed in
      ok)

(* The runs cover the three corners of the prune rule. *)
let combo_ref_coverage () =
  let runs = List.init 40 combo_run in
  Alcotest.(check bool) "every run matches" true (List.for_all (fun (ok, _, _, _) -> ok) runs);
  Alcotest.(check bool) "more than 20 columns pass" true
    (List.exists (fun (_, s, _, _) -> s) runs);
  Alcotest.(check bool) "the sort sees equal weights" true
    (List.exists (fun (_, _, t, _) -> t) runs);
  Alcotest.(check bool) "no weight passes" true (List.exists (fun (_, _, _, u) -> u) runs)

let safe_exp_props () =
  check_float 1e-9 "exp small" (exp 1.0) (E.safe_exp 1.0);
  Alcotest.(check bool) "monotone at boundary" true (E.safe_exp 501.0 > E.safe_exp 500.0);
  Alcotest.(check bool) "finite for big input" true (Float.is_finite (E.safe_exp 1e6))

(* --- A single two-point block: min obj s.t. usage <= 1 over the segment
   between A=(obj 1, usage 2) and B=(obj 3, usage 0.5). LP optimum:
   tau = 2/3, obj = 7/3. --- *)

let two_point_oracle () =
  let pa = { E.obj = 1.0; usage = Sp.of_assoc [ (0, 2.0) ]; data = "A" } in
  let pb = { E.obj = 3.0; usage = Sp.of_assoc [ (0, 0.5) ]; data = "B" } in
  let priced ~obj_price ~row_price (p : string E.point) =
    (obj_price *. p.E.obj) +. Sp.dot row_price p.E.usage
  in
  let optimize ~obj_price ~row_price =
    if priced ~obj_price ~row_price pa <= priced ~obj_price ~row_price pb then pa
    else pb
  in
  {
    E.optimize;
    optimize_strong = optimize;
    lower_bound =
      (fun ~row_price ->
        Float.min (priced ~obj_price:1.0 ~row_price pa) (priced ~obj_price:1.0 ~row_price pb));
    initial = (fun () -> pa);
  }

let single_block_lp () =
  let outcome =
    E.solve ~round:false
      { E.default_params with E.max_passes = 120 }
      ~capacities:[| 1.0 |]
      ~oracles:[| two_point_oracle () |]
  in
  Alcotest.(check bool) "eps feasible" true (outcome.E.max_violation <= 0.03);
  (* Fractional optimum 7/3; allow the engine a modest slack. *)
  Alcotest.(check bool)
    (Printf.sprintf "near optimum (got %.3f)" outcome.E.objective)
    true
    (outcome.E.objective < 7.0 /. 3.0 *. 1.10 +. 0.02);
  Alcotest.(check bool) "lower bound valid" true
    (outcome.E.lower_bound <= 7.0 /. 3.0 +. 1e-6);
  Alcotest.(check bool) "lower bound nontrivial" true (outcome.E.lower_bound > 1.0)

(* --- K identical blocks sharing one capacity row; compare against the
   simplex solution of the equivalent LP. --- *)

let shared_row_blocks k cap =
  (* Block i chooses between (obj 1, usage 1) and (obj 4, usage 0.2). *)
  let pa = { E.obj = 1.0; usage = Sp.of_assoc [ (0, 1.0) ]; data = 0 } in
  let pb = { E.obj = 4.0; usage = Sp.of_assoc [ (0, 0.2) ]; data = 1 } in
  let oracle =
    let priced ~obj_price ~row_price (p : int E.point) =
      (obj_price *. p.E.obj) +. Sp.dot row_price p.E.usage
    in
    let optimize ~obj_price ~row_price =
      if priced ~obj_price ~row_price pa <= priced ~obj_price ~row_price pb then pa
      else pb
    in
    {
      E.optimize;
      optimize_strong = optimize;
      lower_bound =
        (fun ~row_price ->
          Float.min
            (priced ~obj_price:1.0 ~row_price pa)
            (priced ~obj_price:1.0 ~row_price pb));
      initial = (fun () -> pa);
    }
  in
  let lp =
    (* Variables: t_i = weight on the light point per block.
       min sum (1 + 3 t_i) s.t. sum (1 - 0.8 t_i) <= cap, 0 <= t <= 1. *)
    {
      S.n_vars = k;
      minimize = Array.make k 3.0;
      constraints =
        ({ S.row = List.init k (fun i -> (i, -0.8)); rel = S.Le; rhs = cap -. float_of_int k }
        :: List.init k (fun i -> { S.row = [ (i, 1.0) ]; rel = S.Le; rhs = 1.0 }));
    }
  in
  (Array.make k oracle, lp)

let multi_block_vs_simplex () =
  let k = 8 and cap = 4.0 in
  let oracles, lp = shared_row_blocks k cap in
  let lp_opt =
    match S.solve lp with
    | S.Optimal { objective; _ } -> objective +. float_of_int k (* constant 1/block *)
    | _ -> Alcotest.fail "simplex failed"
  in
  let outcome =
    E.solve ~round:false
      { E.default_params with E.max_passes = 150; seed = 3 }
      ~capacities:[| cap |] ~oracles
  in
  Alcotest.(check bool) "feasible" true (outcome.E.max_violation <= 0.03);
  Alcotest.(check bool)
    (Printf.sprintf "objective near LP opt (%.3f vs %.3f)" outcome.E.objective lp_opt)
    true
    (outcome.E.objective <= lp_opt *. 1.12);
  Alcotest.(check bool)
    (Printf.sprintf "LB valid (%.3f <= %.3f)" outcome.E.lower_bound lp_opt)
    true
    (outcome.E.lower_bound <= lp_opt +. 1e-6)

let feasibility_mode () =
  let oracles, _ = shared_row_blocks 6 3.0 in
  let params = { E.default_params with E.max_passes = 80 } in
  Alcotest.(check bool) "finds feasible point" true
    (E.feasible params ~capacities:[| 3.0 |] ~oracles);
  (* cap 1.0 with 6 blocks and min usage 0.2/block = 1.2 > 1: infeasible. *)
  let oracles, _ = shared_row_blocks 6 1.0 in
  Alcotest.(check bool) "detects infeasible" false
    (E.feasible params ~capacities:[| 1.0 |] ~oracles)

let history_recorded () =
  let oracles, _ = shared_row_blocks 6 3.0 in
  let outcome =
    E.solve ~round:false { E.default_params with E.max_passes = 15 }
      ~capacities:[| 3.0 |] ~oracles
  in
  Alcotest.(check int) "one record per pass" outcome.E.passes
    (Array.length outcome.E.history);
  Array.iter
    (fun (obj, lb, viol) ->
      (* Note: an *infeasible* iterate may undercut the lower bound, so no
         lb <= obj invariant here — only nonnegativity. *)
      Alcotest.(check bool) "sane record" true (obj >= 0.0 && lb >= 0.0 && viol >= 0.0))
    outcome.E.history;
  (* Lower bounds are monotone nondecreasing across passes. *)
  for i = 0 to Array.length outcome.E.history - 2 do
    let _, lb1, _ = outcome.E.history.(i) and _, lb2, _ = outcome.E.history.(i + 1) in
    Alcotest.(check bool) "lb monotone" true (lb2 >= lb1 -. 1e-9)
  done

let rounding_integrality () =
  let oracles, _ = shared_row_blocks 8 4.0 in
  let outcome =
    E.solve ~round:true { E.default_params with E.max_passes = 80 }
      ~capacities:[| 4.0 |] ~oracles
  in
  Array.iter
    (fun combo -> Alcotest.(check int) "singleton combos" 1 (C.length combo))
    outcome.E.combos

let combos_are_convex () =
  let oracles, _ = shared_row_blocks 8 4.0 in
  let outcome =
    E.solve ~round:false { E.default_params with E.max_passes = 40 }
      ~capacities:[| 4.0 |] ~oracles
  in
  Array.iter
    (fun combo ->
      let weights = List.init (C.length combo) (C.weight combo) in
      let total = List.fold_left ( +. ) 0.0 weights in
      Alcotest.(check bool) "weights in (0,1]" true
        (List.for_all (fun w -> w > 0.0 && w <= 1.0 +. 1e-9) weights);
      check_float 1e-6 "weights sum to 1" 1.0 total)
    outcome.E.combos

let row_usage_consistent () =
  let oracles, _ = shared_row_blocks 5 3.0 in
  let outcome =
    E.solve ~round:false { E.default_params with E.max_passes = 30 }
      ~capacities:[| 3.0 |] ~oracles
  in
  (* Recompute usage from combos and compare with the reported vector. *)
  let usage = Array.make 1 0.0 in
  Array.iter
    (fun combo ->
      for q = 0 to C.length combo - 1 do
        Sp.add_into usage (C.weight combo q) (C.point combo q).E.usage
      done)
    outcome.E.combos;
  check_float 1e-6 "aggregate usage" usage.(0) outcome.E.row_usage.(0)

let jobs_bit_identical () =
  (* The determinism contract of the parallel layer: for a fixed seed,
     every observable of the solve — objective, lower bound, violation,
     the rounded per-block choices — is bit-identical at any job count. *)
  let solve jobs =
    let oracles, _ = shared_row_blocks 8 4.0 in
    E.solve ~round:true
      { E.default_params with E.max_passes = 80; seed = 11; jobs }
      ~capacities:[| 4.0 |] ~oracles
  in
  let base = solve 1 in
  List.iter
    (fun jobs ->
      let o = solve jobs in
      let tag s = Printf.sprintf "%s at jobs=%d" s jobs in
      check_float 0.0 (tag "objective") base.E.objective o.E.objective;
      check_float 0.0 (tag "lower bound") base.E.lower_bound o.E.lower_bound;
      check_float 0.0 (tag "violation") base.E.max_violation o.E.max_violation;
      check_float 0.0 (tag "pre-round objective") base.E.pre_round_objective
        o.E.pre_round_objective;
      Alcotest.(check int) (tag "passes") base.E.passes o.E.passes;
      Alcotest.(check (array (float 0.0)))
        (tag "row usage") base.E.row_usage o.E.row_usage;
      (* Rounded placement: every block snapped to the same point. *)
      Array.iteri
        (fun k combo ->
          let other = o.E.combos.(k) in
          if C.length combo <> 1 || C.length other <> 1 then
            Alcotest.fail "rounded combos not singletons";
          Alcotest.(check int) (tag "rounded choice") (C.data combo 0) (C.data other 0))
        base.E.combos)
    [ 2; 4 ]

let validation () =
  let oracles, _ = shared_row_blocks 2 1.0 in
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Engine: capacities must be positive") (fun () ->
      ignore (E.solve E.default_params ~capacities:[| 0.0 |] ~oracles));
  List.iter
    (fun bad ->
      Alcotest.check_raises
        (Printf.sprintf "capacity %g" bad)
        (Invalid_argument "Engine: capacities must be finite, not NaN or infinity")
        (fun () -> ignore (E.solve E.default_params ~capacities:[| 1.0; bad |] ~oracles)))
    [ Float.nan; Float.infinity ];
  Alcotest.check_raises "no blocks" (Invalid_argument "Engine: no blocks") (fun () ->
      ignore
        (E.solve E.default_params ~capacities:[| 1.0 |]
           ~oracles:([||] : unit E.oracle array)))

(* Randomized: K blocks, two points each with random costs/usages, vs
   simplex on the equivalent LP. *)
let prop_engine_vs_simplex =
  QCheck.Test.make ~name:"engine tracks simplex on random 2-point block LPs" ~count:12
    QCheck.small_int
    (fun seed ->
      let rng = Vod_util.Rng.create (500 + seed) in
      let k = 3 + Vod_util.Rng.int rng 5 in
      let heavy = Array.init k (fun _ -> 0.5 +. Vod_util.Rng.float rng) in
      let light = Array.init k (fun _ -> 0.1 +. (0.2 *. Vod_util.Rng.float rng)) in
      let cheap = Array.init k (fun _ -> 1.0 +. Vod_util.Rng.float rng) in
      let dear = Array.init k (fun i -> cheap.(i) +. 1.0 +. (2.0 *. Vod_util.Rng.float rng)) in
      let cap = 0.75 *. Array.fold_left ( +. ) 0.0 heavy in
      let mk i =
        let pa = { E.obj = cheap.(i); usage = Sp.of_assoc [ (0, heavy.(i)) ]; data = 0 } in
        let pb = { E.obj = dear.(i); usage = Sp.of_assoc [ (0, light.(i)) ]; data = 1 } in
        let priced ~obj_price ~row_price (p : int E.point) =
          (obj_price *. p.E.obj) +. Sp.dot row_price p.E.usage
        in
        let optimize ~obj_price ~row_price =
          if priced ~obj_price ~row_price pa <= priced ~obj_price ~row_price pb
          then pa
          else pb
        in
        {
          E.optimize;
          optimize_strong = optimize;
          lower_bound =
            (fun ~row_price ->
              Float.min
                (priced ~obj_price:1.0 ~row_price pa)
                (priced ~obj_price:1.0 ~row_price pb));
          initial = (fun () -> pa);
        }
      in
      let oracles = Array.init k mk in
      (* LP in terms of t_i = weight on light point. *)
      let lp =
        {
          S.n_vars = k;
          minimize = Array.init k (fun i -> dear.(i) -. cheap.(i));
          constraints =
            ({
               S.row = List.init k (fun i -> (i, light.(i) -. heavy.(i)));
               rel = S.Le;
               rhs = cap -. Array.fold_left ( +. ) 0.0 heavy;
             }
            :: List.init k (fun i -> { S.row = [ (i, 1.0) ]; rel = S.Le; rhs = 1.0 }));
        }
      in
      match S.solve lp with
      | S.Optimal { objective; _ } ->
          let lp_opt = objective +. Array.fold_left ( +. ) 0.0 cheap in
          let outcome =
            E.solve ~round:false
              { E.default_params with E.max_passes = 150; seed }
              ~capacities:[| cap |] ~oracles
          in
          outcome.E.max_violation <= 0.05
          && outcome.E.lower_bound <= lp_opt +. 1e-6
          && outcome.E.objective <= (lp_opt *. 1.15) +. 0.05
      | S.Infeasible | S.Unbounded -> false)

let suite =
  [
    Alcotest.test_case "sparse ops" `Quick sparse_ops;
    Alcotest.test_case "safe_exp" `Quick safe_exp_props;
    Alcotest.test_case "single block LP" `Quick single_block_lp;
    Alcotest.test_case "multi block vs simplex" `Quick multi_block_vs_simplex;
    Alcotest.test_case "feasibility mode" `Quick feasibility_mode;
    Alcotest.test_case "history recorded" `Quick history_recorded;
    Alcotest.test_case "rounding integrality" `Quick rounding_integrality;
    Alcotest.test_case "combos convex" `Quick combos_are_convex;
    Alcotest.test_case "row usage consistent" `Quick row_usage_consistent;
    Alcotest.test_case "jobs bit-identical" `Quick jobs_bit_identical;
    Alcotest.test_case "validation" `Quick validation;
    QCheck_alcotest.to_alcotest prop_engine_vs_simplex;
    Alcotest.test_case "sparse cancelling duplicates" `Quick sparse_cancelling_duplicates;
    QCheck_alcotest.to_alcotest prop_sparse_matches_ref;
    QCheck_alcotest.to_alcotest prop_combo_matches_ref;
    Alcotest.test_case "combo reference coverage" `Quick combo_ref_coverage;
  ]
