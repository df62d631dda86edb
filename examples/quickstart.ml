(* Quickstart: build a small VoD system, solve the placement MIP, inspect
   the solution, and replay a week of requests against it.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. A world: the 55-VHO backbone, a 1000-video catalog, a month of
        synthetic requests with population-proportional regional demand. *)
  let sc = Vod_core.Scenario.backbone ~n_videos:1000 ~seed:7 () in
  Printf.printf "library: %d videos, %.0f GB; trace: %d requests over %d days\n\n"
    (Vod_workload.Catalog.n_videos sc.Vod_core.Scenario.catalog)
    (Vod_core.Scenario.library_gb sc)
    (Vod_workload.Trace.length sc.Vod_core.Scenario.trace)
    sc.Vod_core.Scenario.trace.Vod_workload.Trace.days;

  (* 2. Demand inputs for one placement period: aggregate requests a_j^m
        and concurrency f_j^m(t) during the two busiest hours. *)
  let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
  Printf.printf "week 1 demand: %.0f requests, peak windows at %s\n\n"
    demand.Vod_workload.Demand.total_requests
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun (t0, _) -> Printf.sprintf "day %.1f" (t0 /. 86_400.0))
             demand.Vod_workload.Demand.windows)));

  (* 3. The MIP instance: 2x-library aggregate disk, uniform links. *)
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:2.0 in
  let inst =
    Vod_placement.Instance.create ~graph:sc.Vod_core.Scenario.graph
      ~catalog:sc.Vod_core.Scenario.catalog ~demand ~disk_gb:disk
      ~link_capacity_mbps:
        (Vod_placement.Instance.uniform_links sc.Vod_core.Scenario.graph 1000.0)
      ()
  in

  (* 4. Solve: EPF decomposition + rounding. Wall time is the caller's
        business (lib/ is wallclock-free); time the call directly. *)
  let t0 = Unix.gettimeofday () in
  let report = Vod_placement.Solve.solve inst in
  let solve_s = Unix.gettimeofday () -. t0 in
  let sol = report.Vod_placement.Solve.solution in
  Printf.printf
    "solved in %.1fs (%d passes): objective %.0f, Lagrangian bound %.0f, max constraint violation %.1f%%\n"
    solve_s report.Vod_placement.Solve.passes
    sol.Vod_placement.Solution.objective sol.Vod_placement.Solution.lower_bound
    (100.0 *. sol.Vod_placement.Solution.max_violation);

  (* 5. Inspect the placement: replication by demand rank. *)
  let ranked = Vod_workload.Demand.rank_by_demand demand in
  Printf.printf "\ncopies by demand rank:\n";
  List.iter
    (fun r ->
      Printf.printf "  rank %4d: %2d copies (%.0f weekly requests)\n" (r + 1)
        (Vod_placement.Solution.copies sol ranked.(r))
        (Vod_workload.Demand.video_requests demand ranked.(r)))
    [ 0; 4; 19; 99; 499 ];

  (* 6. Replay week 2 against the placement with a 5% complementary LRU
        cache per office. *)
  let cache_gb = Array.map (fun d -> 0.05 *. d) disk in
  let fleet =
    Vod_cache.Fleet.mip ~solution:sol ~paths:sc.Vod_core.Scenario.paths
      ~catalog:sc.Vod_core.Scenario.catalog ~cache_gb
  in
  let trace = sc.Vod_core.Scenario.trace in
  let day = Vod_workload.Trace.seconds_per_day in
  let lo, hi = Vod_workload.Trace.between trace ~t0_s:(7.0 *. day) ~t1_s:(14.0 *. day) in
  let metrics, _ =
    Vod_serve.Loop.run_soa ~graph:sc.Vod_core.Scenario.graph
      ~paths:sc.Vod_core.Scenario.paths ~catalog:sc.Vod_core.Scenario.catalog
      ~fleet
      ~store:{ (Vod_workload.Trace.sub trace ~lo ~hi) with Vod_workload.Trace.days = 14 }
      ()
  in
  Printf.printf
    "\nweek-2 playout: %d requests, %.1f%% served locally, peak link %.0f Mb/s, %.0f GB x hop transferred\n"
    metrics.Vod_sim.Metrics.requests
    (100.0 *. Vod_sim.Metrics.local_fraction metrics)
    (Vod_sim.Metrics.max_link_mbps metrics)
    metrics.Vod_sim.Metrics.total_gb_hops
