(* Edge-case tests: empty demand, degenerate windows, single-VHO networks,
   and other boundary conditions a production library must survive. *)

module G = Vod_topology.Graph
module I = Vod_placement.Instance

let two_node_graph () =
  G.create ~name:"pair" ~n:2 ~edges:[ (0, 1) ] ~populations:[| 1.0; 1.0 |]

let empty_demand_placement () =
  (* A catalog nobody has requested yet must still be placed: one copy of
     every video, wherever it fits. *)
  let graph = two_node_graph () in
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:6 ~days:7 ~seed:1)
  in
  let demand =
    Golden.week_demand catalog ~n_vhos:2
      (Vod_workload.Trace.of_columns ~n_vhos:2 ~days:7 ~times:[||] ~vhos:[||] ~videos:[||])
  in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  let inst =
    I.create ~graph ~catalog ~demand
      ~disk_gb:(I.uniform_disk ~total_gb:(2.0 *. total) 2)
      ~link_capacity_mbps:(I.uniform_links graph 100.0)
      ()
  in
  let report = Vod_placement.Solve.solve inst in
  let sol = report.Vod_placement.Solve.solution in
  for v = 0 to 5 do
    Alcotest.(check bool) "placed" true (Vod_placement.Solution.copies sol v >= 1)
  done;
  Alcotest.(check bool) "no violation" true (sol.Vod_placement.Solution.max_violation <= 0.01)

let demand_fewer_windows_than_requested () =
  (* A one-day batch cannot produce two distinct-day peak windows. *)
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:4 ~days:7 ~seed:2)
  in
  let reqs =
    Vod_workload.Trace.of_columns ~n_vhos:2 ~days:1 ~times:[| 100.0 |] ~vhos:[| 0 |]
      ~videos:[| 0 |]
  in
  let demand =
    Vod_workload.Demand.of_soa catalog ~n_vhos:2 ~day0:0 ~days:1 ~n_windows:2
      ~window_s:3600.0 reqs ~lo:0 ~hi:1
  in
  Alcotest.(check int) "one window" 1 (Array.length demand.Vod_workload.Demand.windows)

let single_metro_network () =
  (* One VHO, no links: everything is local; the MIP degenerates to "store
     everything here", which must fit and solve cleanly. *)
  let graph = two_node_graph () in
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:5 ~days:7 ~seed:3)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog ~populations:[| 1.0; 0.0001 |]
         ~mean_daily_requests:50.0 ~seed:4)
  in
  let demand =
    Golden.week_demand ~n_windows:1 catalog ~n_vhos:2 trace
  in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  let inst =
    I.create ~graph ~catalog ~demand
      ~disk_gb:[| 2.0 *. total; 2.0 *. total |]
      ~link_capacity_mbps:(I.uniform_links graph 1000.0)
      ()
  in
  let report = Vod_placement.Solve.solve inst in
  Alcotest.(check bool) "clean solve" true
    (report.Vod_placement.Solve.solution.Vod_placement.Solution.max_violation <= 0.01)

let link_infeasible_detected () =
  (* Disk just above one library copy, links near zero: remote serving is
     unavoidable but impossible — the probe must say infeasible. *)
  let graph = two_node_graph () in
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:8 ~days:7 ~seed:5)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog ~populations:[| 1.0; 1.0 |]
         ~mean_daily_requests:400.0 ~seed:6)
  in
  let demand =
    Golden.week_demand catalog ~n_vhos:2 trace
  in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  let inst =
    I.create ~graph ~catalog ~demand
      ~disk_gb:(I.uniform_disk ~total_gb:(1.1 *. total) 2)
      ~link_capacity_mbps:(I.uniform_links graph 0.01)
      ()
  in
  Alcotest.(check bool) "infeasible" false (Vod_placement.Feasibility.feasible inst)

let trace_rejects_bad_requests () =
  let one ~time_s ~vho =
    Vod_workload.Trace.of_columns ~n_vhos:2 ~days:1 ~times:[| time_s |] ~vhos:[| vho |]
      ~videos:[| 0 |]
  in
  Alcotest.check_raises "vho range" (Invalid_argument "Trace: vho 5 out of range [0, 2)")
    (fun () -> ignore (one ~time_s:0.0 ~vho:5));
  Alcotest.check_raises "time range"
    (Invalid_argument "Trace: request time 100000.000 outside [0, 86400) s") (fun () ->
      ignore (one ~time_s:100_000.0 ~vho:0));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Trace: request time -1.000 outside [0, 86400) s") (fun () ->
      ignore (one ~time_s:(-1.0) ~vho:0))

let metrics_rejects_bad_bin () =
  Alcotest.check_raises "bin size" (Invalid_argument "Metrics.create: bin_s must be positive")
    (fun () -> ignore (Vod_sim.Metrics.create ~n_links:1 ~n_vhos:1 ~horizon_s:100.0 ~bin_s:0.0 ()))

let zero_capacity_cache_always_misses () =
  let c = Vod_cache.Cache.create ~policy:Vod_cache.Cache.Lru ~capacity_gb:0.0 in
  let inserted, _ = Vod_cache.Cache.insert c 1 ~size_gb:0.1 ~now:0.0 ~busy_until:0.0 in
  Alcotest.(check bool) "cannot insert" false inserted;
  Alcotest.(check bool) "no hit" false (Vod_cache.Cache.touch c 1 ~busy_until:0.0)

let estimator_first_episode_no_donor () =
  (* An episode with no predecessor gets no clone; prediction must not
     crash. *)
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:60 ~days:7 ~seed:7)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:(Vod_topology.Topologies.zipf_populations ~seed:7 4)
         ~mean_daily_requests:100.0 ~seed:8)
  in
  let pred =
    Vod_workload.Estimator.predict_at Vod_workload.Estimator.Series_blockbuster
      catalog trace ~t0_s:(7.0 *. Vod_workload.Trace.seconds_per_day)
  in
  Alcotest.(check int) "a week predicted" 7 pred.Vod_workload.Trace.days

let suite =
  [
    Alcotest.test_case "empty demand placement" `Quick empty_demand_placement;
    Alcotest.test_case "fewer windows than requested" `Quick demand_fewer_windows_than_requested;
    Alcotest.test_case "single metro network" `Quick single_metro_network;
    Alcotest.test_case "link infeasibility detected" `Quick link_infeasible_detected;
    Alcotest.test_case "trace validation" `Quick trace_rejects_bad_requests;
    Alcotest.test_case "metrics validation" `Quick metrics_rejects_bad_bin;
    Alcotest.test_case "zero-capacity cache" `Quick zero_capacity_cache_always_misses;
    Alcotest.test_case "estimator no donor" `Quick estimator_first_episode_no_donor;
  ]
