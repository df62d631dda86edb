(* Iterative peak-window refinement (paper Sec. VI-B).

   Enforcing link constraints only during the |T| busiest windows may
   leave other periods overloaded. "In the general case, we would
   iteratively identify these additional time periods that overload some
   links and add them to the set of peak demand periods, such that a
   solution to the new problem instance would satisfy the link constraints
   during these additional time periods."

   [solve] does exactly that: solve with the initial peak windows,
   replay the placement period against the placement, find the window
   with the worst realized link overload outside the enforced set, add it,
   and re-solve — until no link exceeds its capacity by more than
   [tolerance] or [max_rounds] is hit. *)

type round_info = {
  windows : (float * float) array;  (* enforced windows this round *)
  report : Vod_placement.Solve.report;
  worst_overload : float;           (* max realized load / capacity - 1 *)
  worst_window : float option;      (* start of the offending window, if any *)
}

type result = {
  rounds : round_info list;  (* oldest first *)
  final : Vod_placement.Solve.report;
  converged : bool;
}

(* Replay [week] against [solution] and return per-window worst
   relative link overload: for each [window_s]-aligned window, the max
   over links of (average load / capacity). *)
let realized_overload (sc : Scenario.t) (inst : Vod_placement.Instance.t)
    (solution : Vod_placement.Solution.t) ~week ~window_s =
  let n = Vod_topology.Graph.n_nodes sc.Scenario.graph in
  let fleet =
    Vod_cache.Fleet.mip ~solution ~paths:sc.Scenario.paths ~catalog:sc.Scenario.catalog
      ~cache_gb:(Array.make n 0.0)
  in
  let metrics, _ =
    Vod_serve.Loop.run_soa ~graph:sc.Scenario.graph ~paths:sc.Scenario.paths
      ~catalog:sc.Scenario.catalog ~fleet ~store:week ~bin_s:window_s ()
  in
  (* Per-bin worst utilization relative to each link's capacity. *)
  Array.init metrics.Vod_sim.Metrics.n_bins (fun b ->
      let worst = ref 0.0 in
      for l = 0 to metrics.Vod_sim.Metrics.n_links - 1 do
        let u =
          metrics.Vod_sim.Metrics.link_load.(l).(b)
          /. inst.Vod_placement.Instance.link_capacity_mbps.(l)
        in
        if u > !worst then worst := u
      done;
      !worst)

let solve ?(params = Vod_epf.Engine.default_params) ?(max_rounds = 4)
    ?(tolerance = 0.05) ?(n_windows = 2) ?(window_s = 3600.0) (sc : Scenario.t)
    ~day0 ~disk_gb ~link_capacity_mbps () =
  (* The placement week's actual requests rebased to its start (the
     oracle prediction): the demand model's input and the replay. *)
  let week =
    Vod_workload.Estimator.predict_at Vod_workload.Estimator.Perfect
      sc.Scenario.catalog sc.Scenario.trace
      ~t0_s:(float_of_int day0 *. Vod_workload.Trace.seconds_per_day)
  in
  let base =
    Vod_workload.Demand.of_soa sc.Scenario.catalog
      ~n_vhos:(Vod_topology.Graph.n_nodes sc.Scenario.graph)
      ~day0:0 ~days:7 ~n_windows ~window_s week ~lo:0
      ~hi:(Vod_workload.Trace.length week)
  in
  let link_capacity =
    Vod_placement.Instance.uniform_links sc.Scenario.graph link_capacity_mbps
  in
  let rec loop rounds windows =
    (* Recount concurrency for the enforced windows. *)
    let demand =
      Vod_workload.Demand.with_windows sc.Scenario.catalog base week windows
    in
    let inst =
      Vod_placement.Instance.create ~graph:sc.Scenario.graph
        ~catalog:sc.Scenario.catalog ~demand ~disk_gb
        ~link_capacity_mbps:link_capacity ()
    in
    let report = Vod_placement.Solve.solve ~params inst in
    let overloads =
      realized_overload sc inst report.Vod_placement.Solve.solution ~week ~window_s
    in
    (* Worst overloaded window not already enforced. *)
    let enforced t =
      Array.exists (fun (t0, _) -> Float.abs (t0 -. t) < window_s /. 2.0) windows
    in
    let worst = ref 0.0 and worst_at = ref None in
    Array.iteri
      (fun b u ->
        let t = float_of_int b *. window_s in
        if (not (enforced t)) && u -. 1.0 > !worst then begin
          worst := u -. 1.0;
          worst_at := Some t
        end)
      overloads;
    let info =
      {
        windows;
        report;
        worst_overload = !worst;
        worst_window = !worst_at;
      }
    in
    let rounds = info :: rounds in
    match !worst_at with
    | Some t when !worst > tolerance && List.length rounds < max_rounds ->
        loop rounds (Array.append windows [| (t, t +. window_s) |])
    | Some _ | None ->
        {
          rounds = List.rev rounds;
          final = report;
          converged = !worst <= tolerance;
        }
  in
  loop [] base.Vod_workload.Demand.windows
