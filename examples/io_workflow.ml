(* Operational I/O workflow: the loop a provider would actually run.

   1. Export the request log (here: a generated trace standing in for the
      real log) to CSV.
   2. Reload it, build the week's demand model, solve the placement.
   3. Export the placement to CSV (the artifact handed to the delivery
      system).
   4. Reload the placement and evaluate it in the simulator, as an auditor
      who only has the two CSV files would.

     dune exec examples/io_workflow.exe *)

let () =
  let dir = Filename.get_temp_dir_name () in
  let trace_csv = Filename.concat dir "vod_requests.csv" in
  let placement_csv = Filename.concat dir "vod_placement.csv" in
  (* 1. The "request log". *)
  let sc = Vod_core.Scenario.backbone ~n_videos:400 ~days:14 ~seed:77 () in
  Vod_workload.Trace_io.save_csv sc.Vod_core.Scenario.trace trace_csv;
  Printf.printf "wrote %s (%d requests)\n" trace_csv
    (Vod_workload.Trace.length sc.Vod_core.Scenario.trace);
  (* 2. Reload and solve week 1. *)
  let n_vhos = Vod_topology.Graph.n_nodes sc.Vod_core.Scenario.graph in
  let trace = Vod_workload.Trace_io.load_csv ~n_vhos ~days:14 trace_csv in
  let day = Vod_workload.Trace.seconds_per_day in
  let lo, hi = Vod_workload.Trace.between trace ~t0_s:0.0 ~t1_s:(7.0 *. day) in
  let demand =
    Vod_workload.Demand.of_soa sc.Vod_core.Scenario.catalog ~n_vhos ~day0:0
      ~days:7 ~n_windows:2 ~window_s:3600.0 trace ~lo ~hi
  in
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:2.0 in
  let inst =
    Vod_placement.Instance.create ~graph:sc.Vod_core.Scenario.graph
      ~catalog:sc.Vod_core.Scenario.catalog ~demand ~disk_gb:disk
      ~link_capacity_mbps:
        (Vod_placement.Instance.uniform_links sc.Vod_core.Scenario.graph 800.0)
      ()
  in
  let report =
    Vod_placement.Solve.solve
      ~params:{ Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 30 }
      inst
  in
  (* 3. Hand-off artifact. *)
  Vod_placement.Solution_io.save_csv report.Vod_placement.Solve.solution placement_csv;
  Printf.printf "wrote %s (objective %.0f, gap <= %.1f%%)\n" placement_csv
    report.Vod_placement.Solve.solution.Vod_placement.Solution.objective
    (100.0 *. Vod_placement.Solution.gap report.Vod_placement.Solve.solution);
  (* 4. Audit from the CSVs alone: reload both, replay week 2. *)
  let placement =
    Vod_placement.Solution_io.load_csv ~n_vhos
      ~n_videos:(Vod_workload.Catalog.n_videos sc.Vod_core.Scenario.catalog)
      placement_csv
  in
  let fleet =
    Vod_cache.Fleet.mip ~solution:placement ~paths:sc.Vod_core.Scenario.paths
      ~catalog:sc.Vod_core.Scenario.catalog
      ~cache_gb:(Array.map (fun d -> 0.05 *. d) disk)
  in
  let lo, hi = Vod_workload.Trace.between trace ~t0_s:(7.0 *. day) ~t1_s:(14.0 *. day) in
  let metrics, _ =
    Vod_serve.Loop.run_soa ~graph:sc.Vod_core.Scenario.graph
      ~paths:sc.Vod_core.Scenario.paths ~catalog:sc.Vod_core.Scenario.catalog
      ~fleet ~store:(Vod_workload.Trace.sub trace ~lo ~hi)
      ()
  in
  Printf.printf
    "audit replay of week 2: %d requests, %.1f%% local, peak link %.0f Mb/s\n"
    metrics.Vod_sim.Metrics.requests
    (100.0 *. Vod_sim.Metrics.local_fraction metrics)
    (Vod_sim.Metrics.max_link_mbps metrics);
  Sys.remove trace_csv;
  Sys.remove placement_csv
