(* End-to-end placement solve: one entry point over three fixed solvers
   — the EPF engine (the paper's, default), the stabilized Benders/DW
   master and the exact simplex reference — picked by name.

   Wall-clock never appears here (wallclock-in-solver rule): phase
   timings go through Vod_obs.Obs side-band, under phase/solve/. *)

type report = {
  solution : Solution.t;
  lp_objective : float;      (* fractional objective before rounding *)
  lp_violation : float;      (* max relative violation before rounding *)
  passes : int;
  history : (float * float * float) array;
}

let src = Logs.Src.create "vod.solve" ~doc:"placement solve pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

module Obs = Vod_obs.Obs
module Engine = Vod_epf.Engine

let solvers = [ "epf"; "benders"; "simplex" ]

let report_of inst blocks (outcome : _ Engine.outcome) =
  let solution =
    Obs.phase "extract" (fun () -> Solution.of_outcome inst blocks outcome)
  in
  {
    solution;
    lp_objective = outcome.Engine.pre_round_objective;
    lp_violation = outcome.Engine.pre_round_violation;
    passes = outcome.Engine.passes;
    history = outcome.Engine.history;
  }

(* EPF and Benders: the same per-video UFL oracles, warm-start points
   (one engine point per block, rebuilt from the incumbent placement)
   and extraction around a different decomposition loop, timed as
   phase [name]. *)
let decomposed ~name run ?incumbent inst =
  let blocks, oracles, warm_prices =
    Obs.phase "blocks" (fun () -> Blocks.oracles inst)
  in
  let capacities = Instance.capacities inst in
  let initial =
    Option.map
      (fun sol ->
        Obs.phase "warm_points" (fun () ->
            Array.map
              (fun b -> Solution.engine_point inst b ~incumbent:sol)
              blocks))
      incumbent
  in
  report_of inst blocks
    (Obs.phase name (fun () -> run ~initial ~warm_prices ~capacities ~oracles))

(* "epf": the exponential-potential-function engine. *)
let epf params =
  decomposed ~name:"engine" (fun ~initial ~warm_prices:_ ~capacities ~oracles ->
      Engine.solve ~round:true ?initial params ~capacities ~oracles)

(* "benders": stabilized cutting-plane master over the same oracles,
   its incumbent prices seeded with the warm-start disk duals the
   oracles' initial points assume. *)
let benders (params : Engine.params) =
  decomposed ~name:"master" (fun ~initial ~warm_prices ~capacities ~oracles ->
      Vod_decomp.Master.solve ?initial ~initial_prices:warm_prices
        ~max_passes:params.Engine.max_passes ~jobs:params.Engine.jobs
        ~capacities oracles)

(* "simplex": the exact monolithic LP (Lp_check.build), rounded by
   y >= 1/2 / largest-x extraction. Ground truth on small instances;
   the tableau outgrows memory beyond a few thousand nonzeros. The
   dense tableau has no warm-start path. *)
let simplex ?incumbent:_ inst =
  let lp =
    Obs.phase "lp" (fun () -> Lp_check.solve_reference inst)
  in
  match lp with
  | Vod_lp.Simplex.Infeasible ->
      (* vodlint-disable no-failwith -- caller-facing diagnosis, same
         Failure contract as the unknown-solver error in [solve] *)
      failwith "simplex backend: placement LP is infeasible"
  | Vod_lp.Simplex.Unbounded ->
      (* vodlint-disable no-failwith -- ditto *)
      failwith "simplex backend: placement LP is unbounded"
  | Vod_lp.Simplex.Optimal { objective; solution = x; duals = _ } ->
      let blocks = Obs.phase "blocks" (fun () -> Blocks.build_blocks inst) in
      let n = Instance.n_vhos inst in
      let points =
        Obs.phase "extract_points" (fun () ->
            Array.map
              (fun (b : Blocks.block) ->
                let video = b.Blocks.video in
                let open_set =
                  Array.init n (fun i ->
                      x.(Lp_check.y_var ~n ~video i) >= 0.5)
                in
                let assign =
                  Array.map
                    (fun (c : Blocks.client) ->
                      let best = ref 0 and best_x = ref neg_infinity in
                      for i = 0 to n - 1 do
                        let xi =
                          x.(Lp_check.x_var ~n ~video ~server:i
                               ~client:c.Blocks.vho)
                        in
                        if xi > !best_x +. 1e-12 then begin
                          best := i;
                          best_x := xi
                        end
                      done;
                      !best)
                    b.Blocks.clients
                in
                Array.iter (fun s -> open_set.(s) <- true) assign;
                if not (Array.exists Fun.id open_set) then begin
                  (* Zero-demand video: the LP leaves it unplaced, but a
                     Solution.t requires one copy. Pin the largest y
                     (lowest index on ties, 0 when all-zero). *)
                  let best = ref 0 and best_y = ref neg_infinity in
                  for i = 0 to n - 1 do
                    let yi = x.(Lp_check.y_var ~n ~video i) in
                    if yi > !best_y +. 1e-12 then begin
                      best := i;
                      best_y := yi
                    end
                  done;
                  open_set.(!best) <- true
                end;
                Blocks.point_of_solution inst b
                  { Vod_facility.Ufl.open_set; assign; cost = 0.0 })
              blocks)
      in
      report_of inst blocks
        (Engine.integral_outcome ~capacities:(Instance.capacities inst)
           ~lower_bound:objective ~passes:1 ~pre_round_objective:objective
           ~pre_round_violation:0.0
           ~history:[| (objective, objective, 0.0) |]
           points)

let solve ?(solver = "epf") ?(params = Engine.default_params) ?incumbent
    (inst : Instance.t) =
  let run =
    match solver with
    | "epf" -> epf params
    | "benders" -> benders params
    | "simplex" -> simplex
    | _ ->
        (* vodlint-disable no-failwith -- Failure naming every solver is
           the documented contract of [solve] (solve.mli). *)
        failwith
          (Printf.sprintf "unknown solver %S (known: %s)" solver
             (String.concat ", " solvers))
  in
  let report = Obs.phase "solve" (fun () -> run ?incumbent inst) in
  Log.info (fun m ->
      m "solved %d videos on %d VHOs: obj=%.4g lb=%.4g gap=%.2f%% viol=%.2f%% (%d passes)"
        report.solution.Solution.n_videos report.solution.Solution.n_vhos
        report.solution.Solution.objective report.solution.Solution.lower_bound
        (100.0 *. Solution.gap report.solution)
        (100.0 *. report.solution.Solution.max_violation)
        report.passes);
  report
