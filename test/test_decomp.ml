(* Tests for the solver dispatch in Solve.solve and the Benders/Dantzig-
   Wolfe master: the unknown-solver error, the simplex solver against
   the recorded exact LP objective, the Benders fractional point against
   the exact LP on a tiny instance, jobs-count bit-identity, warm starts,
   every solver's reported violation against an Lp_check recomputation,
   the master's fillable-row screen against the LP over every touched
   row, and daemon replanning through a non-default solver. *)

module I = Vod_placement.Instance
module Sol = Vod_placement.Solution
module Solve = Vod_placement.Solve
module Master = Vod_decomp.Master
module G = Vod_topology.Graph
module P = Vod_core.Pipeline

(* The same tiny deterministic world test_placement uses: 4 VHOs on a
   ring, 8 videos, 7 days, 2 windows. *)
let tiny_instance ?(disk_mult = 2.0) ?(link = 200.0) () =
  let graph =
    G.create ~name:"ring4" ~n:4
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
      ~populations:[| 4.0; 3.0; 2.0; 1.0 |]
  in
  let catalog =
    Vod_workload.Catalog.generate
      (Vod_workload.Catalog.default_params ~n:8 ~days:7 ~seed:11)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:graph.G.populations ~mean_daily_requests:600.0 ~seed:12)
  in
  let demand =
    Golden.week_demand catalog ~n_vhos:4 trace
  in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  I.create ~graph ~catalog ~demand
    ~disk_gb:(I.uniform_disk ~total_gb:(disk_mult *. total) 4)
    ~link_capacity_mbps:(I.uniform_links graph link)
    ()

let exact_lp_objective inst =
  match Vod_placement.Lp_check.solve_reference inst with
  | Vod_lp.Simplex.Optimal { objective; _ } -> objective
  | _ -> Alcotest.fail "reference LP must be optimal"

(* ---------- solver dispatch ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let unknown_backend_lists_names () =
  match Solve.solve ~solver:"nope" (tiny_instance ()) with
  | _ -> Alcotest.fail "unknown backend must raise"
  | exception Failure msg ->
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "error mentions %S" n)
            true (contains msg n))
        [ "nope"; "benders"; "epf"; "simplex" ]

(* ---------- simplex backend ---------- *)

(* The exact fractional optimum of the tiny instance, recorded from
   Lp_check.solve_reference; guards the whole build+extract path. *)
let recorded_tiny_lp_objective = 3527.1

let simplex_matches_recorded_objective () =
  let inst = tiny_instance () in
  let report = Solve.solve ~solver:"simplex" inst in
  Alcotest.(check (float 1e-4))
    "recorded exact objective" recorded_tiny_lp_objective
    report.Solve.lp_objective;
  Alcotest.(check (float 1e-9))
    "bit-matches the reference LP" (exact_lp_objective inst)
    report.Solve.lp_objective;
  Alcotest.(check (float 1e-12)) "exact LP has no violation" 0.0
    report.Solve.lp_violation;
  Alcotest.(check int) "one pass" 1 report.Solve.passes;
  (* The history is the fractional trace: the LP optimum is both its
     objective and its bound, with no violation. *)
  let lp = report.Solve.lp_objective in
  Alcotest.(check (array (triple (float 0.0) (float 0.0) (float 0.0))))
    "history is the LP point" [| (lp, lp, 0.0) |] report.Solve.history

(* ---------- benders backend ---------- *)

let benders_reaches_exact_lp () =
  let inst = tiny_instance () in
  let exact = exact_lp_objective inst in
  let report = Solve.solve ~solver:"benders" inst in
  let rel = (report.Solve.lp_objective -. exact) /. exact in
  Alcotest.(check bool)
    (Printf.sprintf "fractional objective within 1%% of exact (rel %.4f)" rel)
    true
    (rel < 0.01 && rel > -1e-6);
  Alcotest.(check bool) "fractional point feasible at epsilon" true
    (report.Solve.lp_violation <= 0.01);
  let sol = report.Solve.solution in
  Alcotest.(check int) "all videos placed" 8 sol.Sol.n_videos;
  Array.iter
    (fun row ->
      Alcotest.(check bool) "every video has a copy" true
        (Array.length row > 0))
    sol.Sol.stored

let benders_jobs_bit_identical () =
  let inst = tiny_instance () in
  let solve jobs =
    Solve.solve ~solver:"benders"
      ~params:{ Vod_epf.Engine.default_params with Vod_epf.Engine.jobs }
      inst
  in
  let a = solve 1 and b = solve 4 in
  Alcotest.(check bool) "objective bit-equal" true
    (a.Solve.solution.Sol.objective = b.Solve.solution.Sol.objective);
  Alcotest.(check bool) "lp objective bit-equal" true
    (a.Solve.lp_objective = b.Solve.lp_objective);
  Alcotest.(check bool) "placement identical" true
    (a.Solve.solution.Sol.stored = b.Solve.solution.Sol.stored);
  Alcotest.(check bool) "history bit-equal" true
    (a.Solve.history = b.Solve.history)

let benders_warm_start_runs () =
  let inst = tiny_instance () in
  let cold = Solve.solve ~solver:"benders" inst in
  let warm =
    Solve.solve ~solver:"benders" ~incumbent:cold.Solve.solution inst
  in
  Alcotest.(check bool) "warm solve produces a placement" true
    (Array.length warm.Solve.solution.Sol.stored = 8);
  Alcotest.(check bool) "warm fractional point stays feasible" true
    (warm.Solve.lp_violation <= 0.01);
  let exact = exact_lp_objective inst in
  Alcotest.(check bool) "warm objective still within 1% of exact" true
    ((warm.Solve.lp_objective -. exact) /. exact < 0.01)

(* ---------- reported violation vs an independent recomputation ---------- *)

(* The rounded placement as a 0/1 vector of Lp_check.build's LP: y from
   the stored copies, x from the VHO Solution.server picks per client. *)
let lp_vector inst (sol : Sol.t) =
  let n = I.n_vhos inst in
  let v = Array.make (Vod_placement.Lp_check.block_size n * sol.Sol.n_videos) 0.0 in
  Array.iteri
    (fun video vhos ->
      Array.iter (fun i -> v.(Vod_placement.Lp_check.y_var ~n ~video i) <- 1.0) vhos;
      for client = 0 to n - 1 do
        let server = Sol.server sol inst.I.paths ~video ~vho:client in
        v.(Vod_placement.Lp_check.x_var ~n ~video ~server ~client) <- 1.0
      done)
    sol.Sol.stored;
  v

(* max(0, max over the LP's capacity rows of lhs / rhs - 1): the rows
   with rhs > 0 that are Le (disk, link and the y <= 1 bounds). *)
let lp_violation inst v =
  List.fold_left
    (fun worst (c : Vod_lp.Simplex.constr) ->
      if c.Vod_lp.Simplex.rel = Vod_lp.Simplex.Le && c.Vod_lp.Simplex.rhs > 0.0
      then
        let lhs =
          List.fold_left (fun acc (j, a) -> acc +. (a *. v.(j))) 0.0
            c.Vod_lp.Simplex.row
        in
        Float.max worst ((lhs /. c.Vod_lp.Simplex.rhs) -. 1.0)
      else worst)
    0.0
    (Vod_placement.Lp_check.build inst).Vod_lp.Simplex.constraints

let violation_matches_lp_check () =
  List.iter
    (fun (disk_mult, link) ->
      let inst = tiny_instance ~disk_mult ~link () in
      List.iter
        (fun solver ->
          let case = Printf.sprintf "%s, disk %.1fx, %.0f Mb/s" solver disk_mult link in
          if solver = "simplex" && disk_mult = 1.1 && link = 20.0 then
            Alcotest.check_raises (case ^ ": the LP is infeasible")
              (Failure "simplex backend: placement LP is infeasible") (fun () ->
                ignore (Solve.solve ~solver inst))
          else
            let sol = (Solve.solve ~solver inst).Solve.solution in
            Alcotest.(check (float 1e-9))
              (case ^ ": max_violation = Lp_check recomputation")
              (lp_violation inst (lp_vector inst sol))
              sol.Sol.max_violation)
        Solve.solvers)
    [ (2.0, 200.0); (2.0, 20.0); (1.1, 200.0); (1.1, 20.0) ]

(* ---------- master validation ---------- *)

let master_rejects_bad_inputs () =
  let oracle_absent : unit Vod_epf.Engine.oracle array = [||] in
  Alcotest.check_raises "no blocks"
    (Invalid_argument "Engine: no blocks") (fun () ->
      ignore
        (Master.solve ~max_passes:60 ~jobs:0 ~capacities:[| 1.0 |]
           oracle_absent))

(* ---------- master LP: the fillable-row screen ---------- *)

module S = Vod_lp.Simplex
module Sparse = Vod_epf.Sparse

(* A random restricted-master pool. [cols.(t)] is column t as (block,
   objective, usage); blocks hold 1-6 columns each and interleave in
   the pool the way cut rounds append them. *)
type pool = {
  cols : (int * float * Sparse.t) array;
  k_blocks : int;
  capacities : float array;
  pen : float;
}

(* A column's usage on row i, 0 when it does not touch the row. *)
let usage_at (u : Sparse.t) i =
  let v = ref 0.0 in
  Array.iteri (fun k r -> if r = i then v := u.Sparse.vals.(k)) u.Sparse.rows;
  !v

(* The restricted master LP over [rows], laid out as Master builds it:
   weights, then one overflow variable per listed row; each listed row
   is [-b v] followed by the usages in column order (Le, rhs b); then
   one convexity row per block (Eq, rhs 1). *)
let master_lp p rows =
  let n_cols = Array.length p.cols in
  let n_vars = n_cols + Array.length rows in
  let minimize =
    Array.init n_vars (fun t ->
        if t < n_cols then
          let _, obj, _ = p.cols.(t) in
          obj
        else p.pen)
  in
  let usage_row i =
    List.filter_map
      (fun t ->
        let _, _, u = p.cols.(t) in
        let v = usage_at u i in
        if v <> 0.0 then Some (t, v) else None)
      (List.init n_cols Fun.id)
  in
  let cap_rows =
    List.mapi
      (fun k i ->
        {
          S.row = (n_cols + k, -.p.capacities.(i)) :: usage_row i;
          rel = S.Le;
          rhs = p.capacities.(i);
        })
      (Array.to_list rows)
  in
  let convexity =
    List.init p.k_blocks (fun b ->
        {
          S.row =
            List.filter_map
              (fun t ->
                let bt, _, _ = p.cols.(t) in
                if bt = b then Some (t, 1.0) else None)
              (List.init n_cols Fun.id);
          rel = S.Eq;
          rhs = 1.0;
        })
  in
  { S.n_vars; minimize; constraints = cap_rows @ convexity }

(* Each block's column usages, in pool order: Master.fillable_rows'
   input. *)
let block_usages p =
  Array.init p.k_blocks (fun b ->
      List.filter_map
        (fun (bt, _, u) -> if bt = b then Some u else None)
        (Array.to_list p.cols))

(* The screen's definition: the reach of row i is the sum over blocks,
   in block order, of the block's largest column usage on i (0 when
   none is positive); the row is kept when its reach exceeds
   (1 - 1e-6) x its capacity. *)
let reach p i =
  Array.fold_left
    (fun acc us ->
      acc +. List.fold_left (fun m u -> Float.max m (usage_at u i)) 0.0 us)
    0.0 (block_usages p)

let screen_def p =
  List.filter
    (fun i -> reach p i > (1.0 -. 1e-6) *. p.capacities.(i))
    (List.init (Array.length p.capacities) Fun.id)
  |> Array.of_list

(* The smallest capacity whose margin (1 - 1e-6) x capacity reaches
   [r] (r > 0): the row sits exactly at, or a rounding step inside, the
   screen's threshold. *)
let at_margin r =
  let c = ref (r /. (1.0 -. 1e-6)) in
  while (1.0 -. 1e-6) *. !c < r do c := Float.succ !c done;
  while (1.0 -. 1e-6) *. Float.pred !c >= r do c := Float.pred !c done;
  !c

(* Rows draw one of seven kinds: binding (capacity 0.2-1.1x its
   reach), loose (1.5-4.5x), exactly at the margin, one step inside it
   (screened), one step over it (kept), untouched (no column uses it)
   and exactly full (capacity = reach, kept: the margin is what keeps
   it). A quarter of the pools screen every row (loose, at or inside
   the margin, or untouched). Half the pools use small-integer
   objectives and usages, so ratio ties and degenerate pivots are
   common; the penalty is 0.01-1x or 10-1000x the mean objective. *)
let random_pool seed =
  let rng = Vod_util.Rng.create seed in
  let int_in lo hi = lo + Vod_util.Rng.int rng (hi - lo + 1) in
  let uniform lo hi = lo +. ((hi -. lo) *. Vod_util.Rng.float rng) in
  let integral = Vod_util.Rng.bool rng in
  let value lo hi =
    if integral then float_of_int (int_in (int_of_float lo) (int_of_float hi))
    else uniform lo hi
  in
  let n_rows = int_in 1 8 and k_blocks = int_in 1 5 in
  let all_screened = Vod_util.Rng.int rng 4 = 0 in
  let kind =
    Array.init n_rows (fun _ ->
        if all_screened then [| 1; 2; 3; 5 |].(Vod_util.Rng.int rng 4)
        else Vod_util.Rng.int rng 7)
  in
  let cols =
    List.concat
      (List.init k_blocks (fun b ->
           List.init (int_in 1 6) (fun _ ->
               let usage =
                 List.filter_map
                   (fun i ->
                     if kind.(i) <> 5 && Vod_util.Rng.int rng 5 < 2 then
                       Some (i, value 1.0 4.0)
                     else None)
                   (List.init n_rows Fun.id)
               in
               (b, value 1.0 9.0, Sparse.of_assoc usage))))
    |> Array.of_list
  in
  Vod_util.Rng.shuffle rng cols;
  let proto = { cols; k_blocks; capacities = Array.make n_rows 1.0; pen = 0.0 } in
  let capacities =
    Array.init n_rows (fun i ->
        let r = reach proto i in
        if r = 0.0 then uniform 1.0 5.0
        else
          match kind.(i) with
          | 0 -> r *. uniform 0.2 1.1
          | 1 -> r *. uniform 1.5 4.5
          | 2 -> at_margin r
          | 3 -> Float.succ (at_margin r)
          | 4 -> Float.pred (at_margin r)
          | 6 -> r
          | _ -> uniform 1.0 5.0)
  in
  let mean_obj =
    Array.fold_left (fun a (_, o, _) -> a +. o) 0.0 cols
    /. float_of_int (Array.length cols)
  in
  let pen =
    mean_obj
    *. if Vod_util.Rng.bool rng then uniform 0.01 1.0 else uniform 10.0 1000.0
  in
  { proto with capacities; pen }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Solved over every touched row (the reference) and over the screened
   rows, the master LP must agree bit for bit on the objective, every
   weight, every kept row's overflow and dual and every convexity dual,
   and each screened row's reference dual must clamp to the +0 price
   Master gives a row it leaves out. The screen itself must match its
   definition. *)
let screen_is_exact seed =
  let p = random_pool seed in
  let kept = Master.fillable_rows ~capacities:p.capacities (block_usages p) in
  if kept <> screen_def p then
    QCheck.Test.fail_reportf
      "seed %d: fillable_rows disagrees with the reach definition" seed;
  let touched =
    List.filter
      (fun i -> Array.exists (fun (_, _, u) -> usage_at u i <> 0.0) p.cols)
      (List.init (Array.length p.capacities) Fun.id)
    |> Array.of_list
  in
  let n_cols = Array.length p.cols in
  let n_touched = Array.length touched and n_kept = Array.length kept in
  match (S.solve (master_lp p touched), S.solve (master_lp p kept)) with
  | S.Optimal full, S.Optimal screened ->
      let pos i =
        let rec go k = if touched.(k) = i then k else go (k + 1) in
        go 0
      in
      same_bits full.objective screened.objective
      && Array.for_all Fun.id
           (Array.init n_cols (fun t ->
                same_bits full.solution.(t) screened.solution.(t)))
      && Array.for_all Fun.id
           (Array.mapi
              (fun k i ->
                same_bits full.solution.(n_cols + pos i)
                  screened.solution.(n_cols + k)
                && same_bits full.duals.(pos i) screened.duals.(k))
              kept)
      && Array.for_all Fun.id
           (Array.init p.k_blocks (fun b ->
                same_bits full.duals.(n_touched + b) screened.duals.(n_kept + b)))
      && Array.for_all
           (fun i ->
             Array.mem i kept
             || same_bits 0.0
                  (Float.min (p.pen /. p.capacities.(i))
                     (Float.max 0.0 (-.full.duals.(pos i)))))
           touched
  | _ -> QCheck.Test.fail_reportf "seed %d: a master LP did not solve" seed

let prop_screen_is_exact =
  QCheck.Test.make ~name:"master LP: screened rows = every touched row (bit)"
    ~count:2000
    QCheck.(int_bound 1_000_000)
    screen_is_exact

(* ---------- daemon through a non-default backend ---------- *)

let daemon_benders_deterministic () =
  let graph =
    G.create ~name:"ring6" ~n:6
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (0, 3) ]
      ~populations:[| 3.0; 1.0; 2.0; 1.0; 1.0; 1.0 |]
  in
  let sc =
    Vod_core.Scenario.make ~days:4 ~requests_per_video_per_day:8.0 ~seed:13
      ~graph ~n_videos:16 ()
  in
  let cfg =
    P.default_config ~scenario:sc
      ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:2.5)
      ~link_capacity_mbps:500.0
  in
  let mip =
    {
      P.default_mip with
      P.engine =
        { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 10 };
      P.solver = "benders";
      P.update_days = 2;
    }
  in
  let run () =
    Vod_serve.Daemon.run ~graph:sc.Vod_core.Scenario.graph
      ~paths:sc.Vod_core.Scenario.paths ~catalog:sc.Vod_core.Scenario.catalog
      ~trace:sc.Vod_core.Scenario.trace
      ~problem:(P.replan_problem cfg mip)
      ~bin_s:cfg.P.bin_s ~record_from:0.0 Vod_serve.Daemon.default_config
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "final placement byte-identical" true
    (a.Vod_serve.Daemon.final.Sol.stored = b.Vod_serve.Daemon.final.Sol.stored);
  Alcotest.(check bool) "final objective bit-equal" true
    (a.Vod_serve.Daemon.final.Sol.objective
    = b.Vod_serve.Daemon.final.Sol.objective);
  Alcotest.(check int) "same replan count"
    (List.length a.Vod_serve.Daemon.replans)
    (List.length b.Vod_serve.Daemon.replans)

let suite =
  [
    Alcotest.test_case "unknown backend lists names" `Quick
      unknown_backend_lists_names;
    Alcotest.test_case "simplex backend: recorded objective" `Quick
      simplex_matches_recorded_objective;
    Alcotest.test_case "benders reaches the exact LP" `Quick
      benders_reaches_exact_lp;
    Alcotest.test_case "benders warm start" `Quick benders_warm_start_runs;
    Alcotest.test_case "benders jobs 1 = jobs 4 (bit)" `Quick
      benders_jobs_bit_identical;
    Alcotest.test_case "reported violation = Lp_check recomputation" `Quick
      violation_matches_lp_check;
    Alcotest.test_case "master input validation" `Quick
      master_rejects_bad_inputs;
    QCheck_alcotest.to_alcotest prop_screen_is_exact;
    Alcotest.test_case "daemon replans via benders deterministically" `Quick
      daemon_benders_deterministic;
  ]
