(* Solver-backend convergence exhibit: the stabilized Benders /
   Dantzig-Wolfe cutting-plane master vs the EPF potential engine on the
   same instances, dispatched through Solve.solve.

   Two parts:

   1. An exact sanity anchor: a tiny 4-VHO instance small enough for the
      dense simplex backend, where every backend's fractional objective
      is compared against the exact LP optimum.

   2. The convergence race on an Ebone-scale instance (videos >> VHOs,
      so per-VHO disks hold many unit-videos and rounding is honest):
      per-backend passes run, passes to a 1% gap, wall-clock, fractional
      and rounded cost, and the certified Lagrangian bound.

   "Passes to 1% gap" is computed post hoc from the per-pass history:
   the first pass whose fractional point is epsilon-feasible and within
   1% of the backend's final fractional objective (the Lagrangian bound
   from the blocks' dual-ascent oracles is too loose on both backends to
   certify 1% directly; EXPERIMENTS.md discusses the distinction). *)

module I = Vod_placement.Instance
module Sol = Vod_placement.Solution
module Solve = Vod_placement.Solve
module G = Vod_topology.Graph

let race_videos =
  match Common.scale with Quick -> 120 | Default -> 200 | Full | Huge -> 400

let race_passes =
  match Common.scale with Quick -> 30 | Default -> 40 | Full | Huge -> 50

let race_days = match Common.scale with Quick | Default -> 7 | Full | Huge -> 14

(* Ebone instance for the race: 23 VHOs, videos >> VHOs, disks at 3x the
   library (binding but integrally packable: tens of unit-videos per
   VHO). *)
let race_instance () =
  let sc =
    Vod_core.Scenario.make ~days:race_days ~requests_per_video_per_day:6.0
      ~seed:42 ~graph:(Vod_topology.Topologies.ebone ()) ~n_videos:race_videos
      ()
  in
  let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 () in
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:3.0 in
  I.create ~graph:sc.Vod_core.Scenario.graph
    ~catalog:sc.Vod_core.Scenario.catalog ~demand ~disk_gb:disk
    ~link_capacity_mbps:
      (I.uniform_links sc.Vod_core.Scenario.graph 1000.0)
    ()

(* Tiny 4-VHO / 8-video instance the dense simplex backend solves
   exactly (the same world test/test_decomp.ml pins). *)
let tiny_instance () =
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
    Vod_workload.Demand.of_soa catalog ~n_vhos:4 ~day0:0 ~days:7
      ~n_windows:2 ~window_s:3600.0 trace ~lo:0 ~hi:(Vod_workload.Trace.length trace)
  in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  I.create ~graph ~catalog ~demand
    ~disk_gb:(I.uniform_disk ~total_gb:(2.0 *. total) 4)
    ~link_capacity_mbps:(I.uniform_links graph 200.0)
    ()

(* First pass whose fractional point is epsilon-feasible and within
   [gap] of the final fractional objective; None if never. *)
let passes_to_gap ?(eps = 0.01) ?(gap = 0.01) (report : Solve.report) =
  let final = report.Solve.lp_objective in
  let n = Array.length report.Solve.history in
  let rec go i =
    if i >= n then None
    else
      let obj, _, viol = report.Solve.history.(i) in
      if viol <= eps && obj -. final <= gap *. Float.abs final then Some (i + 1)
      else go (i + 1)
  in
  go 0

let best_lower_bound (report : Solve.report) =
  Array.fold_left
    (fun acc (_, lb, _) -> Float.max acc lb)
    neg_infinity report.Solve.history

let exact_anchor () =
  Common.section "Decomposition — exact LP anchor (4 VHOs, 8 videos)";
  let inst = tiny_instance () in
  let exact =
    (Solve.solve ~solver:"simplex" inst).Solve.lp_objective
  in
  let rows =
    List.map
      (fun solver ->
        let report, dt = Common.timed (fun () -> Solve.solve ~solver inst) in
        let lp = report.Solve.lp_objective in
        [
          solver;
          Printf.sprintf "%.2f" lp;
          Common.fmt_pct ((lp -. exact) /. exact);
          Common.fmt_pct report.Solve.lp_violation;
          Printf.sprintf "%.0f"
            report.Solve.solution.Sol.objective;
          Printf.sprintf "%.2f" dt;
        ])
      [ "simplex"; "benders"; "epf" ]
  in
  Vod_util.Table.print
    ~header:
      [
        "backend"; "LP objective"; "vs exact"; "LP violation"; "MIP cost";
        "time (s)";
      ]
    rows;
  Common.note
    "exact LP optimum %.4f (simplex reference); benders must land within 1%%."
    exact

let convergence_race () =
  Common.section
    (Printf.sprintf
       "Decomposition — convergence race, Ebone 23 VHOs, %d videos, %d passes"
       race_videos race_passes);
  let inst = race_instance () in
  let params =
    {
      Vod_epf.Engine.default_params with
      Vod_epf.Engine.max_passes = race_passes;
    }
  in
  let reports =
    List.map
      (fun solver ->
        let report, dt =
          Common.timed (fun () -> Solve.solve ~solver ~params inst)
        in
        (solver, report, dt))
      [ "epf"; "benders" ]
  in
  let rows =
    List.map
      (fun (solver, (report : Solve.report), dt) ->
        let lb = best_lower_bound report in
        let sol = report.Solve.solution in
        [
          solver;
          string_of_int report.Solve.passes;
          (match passes_to_gap report with
          | Some p -> string_of_int p
          | None -> "-");
          Printf.sprintf "%.1f" dt;
          Printf.sprintf "%.0f" report.Solve.lp_objective;
          Common.fmt_pct report.Solve.lp_violation;
          Printf.sprintf "%.0f" sol.Sol.objective;
          Common.fmt_pct sol.Sol.max_violation;
          Printf.sprintf "%.0f" lb;
          Common.fmt_pct ((report.Solve.lp_objective -. lb) /. lb);
        ])
      reports
  in
  Vod_util.Table.print
    ~header:
      [
        "backend"; "passes"; "to 1% gap"; "time (s)"; "LP obj"; "LP viol";
        "MIP cost"; "MIP viol"; "lower bound"; "cert. gap";
      ]
    rows;
  (* Convergence trace of the benders master: every pass near the start,
     then every fifth. *)
  (match List.find_opt (fun (s, _, _) -> s = "benders") reports with
  | Some (_, report, _) ->
      Common.note "\nbenders master trace (pass: objective / bound / violation):";
      Array.iteri
        (fun i (obj, lb, viol) ->
          if i < 5 || (i + 1) mod 5 = 0 || i = Array.length report.Solve.history - 1
          then
            Common.note "  pass %2d: %.1f / %.1f / %s" (i + 1) obj lb
              (Common.fmt_pct viol))
        report.Solve.history
  | None -> ());
  Common.note
    "\n'to 1%% gap' = first epsilon-feasible pass within 1%% of the backend's final\n\
     fractional objective; 'cert. gap' is vs the Lagrangian dual-ascent bound,\n\
     which is loose for both backends (see EXPERIMENTS.md)."

let run () =
  exact_anchor ();
  convergence_race ()
