(* Integration tests: scenarios and the full weekly pipeline at toy scale,
   exercising every scheme end-to-end. *)

module Sc = Vod_core.Scenario
module P = Vod_core.Pipeline

let tiny_scenario () =
  let graph =
    Vod_topology.Graph.create ~name:"ring6" ~n:6
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (0, 3) ]
      ~populations:[| 3.0; 1.0; 2.0; 1.0; 1.0; 1.0 |]
  in
  Sc.make ~days:21 ~requests_per_video_per_day:8.0 ~seed:13 ~graph ~n_videos:60 ()

let scenario_construction () =
  let sc = tiny_scenario () in
  Alcotest.(check int) "days" 21 sc.Sc.trace.Vod_workload.Trace.days;
  Alcotest.(check bool) "library sized" true (Sc.library_gb sc > 0.0);
  let disk = Sc.uniform_disk sc ~multiple:2.0 in
  Alcotest.(check int) "per-vho" 6 (Array.length disk);
  Alcotest.(check (float 0.01)) "aggregate = 2x library" (2.0 *. Sc.library_gb sc)
    (Array.fold_left ( +. ) 0.0 disk)

let hetero_disk_shape () =
  let sc = tiny_scenario () in
  let disk = Sc.hetero_disk sc ~multiple:2.0 in
  Alcotest.(check (float 0.01)) "aggregate preserved" (2.0 *. Sc.library_gb sc)
    (Array.fold_left ( +. ) 0.0 disk);
  (* The largest metro gets the largest share (4:2:1 classes). *)
  let top = Vod_topology.Topologies.top_population_nodes sc.Sc.graph 1 in
  let max_disk = Array.fold_left Float.max 0.0 disk in
  Alcotest.(check (float 1e-9)) "largest metro largest disk" max_disk disk.(top.(0))

let demand_of_week_works () =
  let sc = tiny_scenario () in
  let d = Sc.demand_of_week sc ~day0:7 in
  Alcotest.(check bool) "nonzero demand" true (d.Vod_workload.Demand.total_requests > 0.0);
  Alcotest.(check int) "two windows" 2 (Array.length d.Vod_workload.Demand.windows)

(* A scenario around a given trace (vodopt --trace) pairs it with the
   catalog [make] builds for the same seed, days and catalog size. *)
let assemble_matches_make () =
  let sc = tiny_scenario () in
  let around =
    Sc.assemble ~graph:sc.Sc.graph ~catalog:(Sc.catalog ~days:21 ~seed:13 ~n_videos:60)
      sc.Sc.trace
  in
  Alcotest.(check bool) "same catalog" true (around.Sc.catalog = sc.Sc.catalog);
  Alcotest.(check bool) "trace kept" true (around.Sc.trace == sc.Sc.trace);
  Alcotest.(check bool) "another seed, another catalog" false
    (Sc.catalog ~days:21 ~seed:14 ~n_videos:60 = sc.Sc.catalog)

let fast_mip =
  {
    P.default_mip with
    P.engine = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 20 };
  }

let run_scheme scheme =
  let sc = tiny_scenario () in
  let disk = Sc.uniform_disk sc ~multiple:2.5 in
  let cfg =
    { (P.default_config ~scenario:sc ~disk_gb:disk ~link_capacity_mbps:500.0) with P.warmup_days = 7 }
  in
  P.run cfg scheme

let pipeline_conservation result =
  let m = result.P.metrics in
  Alcotest.(check bool) "requests counted" true (m.Vod_sim.Metrics.requests > 0);
  Alcotest.(check int) "local+remote"
    m.Vod_sim.Metrics.requests
    (m.Vod_sim.Metrics.local_served + m.Vod_sim.Metrics.remote_served)

let pipeline_mip () =
  let r = run_scheme (P.Mip fast_mip) in
  pipeline_conservation r;
  (* Bootstrap + updates at days 7 and 14. *)
  Alcotest.(check int) "three solves" 3 (List.length r.P.solves);
  Alcotest.(check int) "two migrations" 2 (List.length r.P.migrations);
  Alcotest.(check bool) "has solution" true (Option.is_some (P.last_solution r))

let pipeline_mip_biweekly () =
  let r = run_scheme (P.Mip { fast_mip with P.update_days = 14 }) in
  (* Bootstrap + one update at day 7 (21-day trace, step 14). *)
  Alcotest.(check int) "two solves" 2 (List.length r.P.solves)

let pipeline_random_lru () =
  let r = run_scheme (P.Random_cache Vod_cache.Cache.Lru) in
  pipeline_conservation r;
  Alcotest.(check int) "no solves" 0 (List.length r.P.solves)

let pipeline_random_lfu () = pipeline_conservation (run_scheme (P.Random_cache Vod_cache.Cache.Lfu))

let pipeline_topk () = pipeline_conservation (run_scheme (P.Topk_lru 5))

let pipeline_origin () = pipeline_conservation (run_scheme (P.Origin_lru 2))

let estimation_ordering () =
  (* Perfect knowledge should never do materially worse than no estimate
     on total transfer (paper Table VI). Toy scale, so allow slack. *)
  let run est =
    let r = run_scheme (P.Mip { fast_mip with P.estimator = est }) in
    r.P.metrics.Vod_sim.Metrics.total_gb_hops
  in
  let perfect = run Vod_workload.Estimator.Perfect in
  let none = run Vod_workload.Estimator.History_only in
  Alcotest.(check bool)
    (Printf.sprintf "perfect (%.0f) <= none (%.0f) * 1.1" perfect none)
    true (perfect <= none *. 1.1)

let update_schedule_tiling () =
  (* The MIP update schedule is the daemon's periodic boundaries at
     [update_days] days: updates run every [update_days] from day 7 while
     strictly inside the trace; the last segment may be shorter but is
     never dropped. *)
  let day = Vod_workload.Trace.seconds_per_day in
  let schedule ~days ~update_days =
    Vod_serve.Daemon.boundaries
      {
        Vod_serve.Daemon.default_config with
        Vod_serve.Daemon.update_every_s = float_of_int update_days *. day;
      }
      ~horizon_s:(float_of_int days *. day) ()
  in
  let at days = List.map (fun d -> (float_of_int d *. day, "periodic")) days in
  let check label expected got =
    Alcotest.(check (list (pair (float 0.0) string))) label (at expected) got
  in
  check "30d weekly" [ 7; 14; 21; 28 ] (schedule ~days:30 ~update_days:7);
  check "21d biweekly" [ 7 ] (schedule ~days:21 ~update_days:14);
  check "28d weekly ends exactly" [ 7; 14; 21 ] (schedule ~days:28 ~update_days:7);
  check "short trace has no updates" [] (schedule ~days:7 ~update_days:1);
  (* A non-positive period fails at once, in the pipeline too (before
     any solve), instead of never reaching the horizon. *)
  let non_positive =
    Invalid_argument "Daemon.boundaries: update_every_s must be positive"
  in
  List.iter
    (fun update_days ->
      Alcotest.check_raises
        (Printf.sprintf "period %d days" update_days)
        non_positive
        (fun () -> ignore (schedule ~days:30 ~update_days));
      Alcotest.check_raises
        (Printf.sprintf "pipeline period %d days" update_days)
        non_positive
        (fun () -> ignore (run_scheme (P.Mip { fast_mip with P.update_days }))))
    [ 0; -1 ]

(* 30-day trace with weekly updates: update_days does not divide the
   post-bootstrap span (23 days), so the final segment is a 2-day stub.
   Every request must still play exactly once, with a solve per
   boundary. *)
let pipeline_30d_weekly_regression () =
  let graph =
    Vod_topology.Graph.create ~name:"ring4" ~n:4
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
      ~populations:[| 2.0; 1.0; 1.0; 1.0 |]
  in
  let sc =
    Sc.make ~days:30 ~requests_per_video_per_day:4.0 ~seed:17 ~graph
      ~n_videos:30 ()
  in
  let cfg =
    {
      (P.default_config ~scenario:sc ~disk_gb:(Sc.uniform_disk sc ~multiple:2.5)
         ~link_capacity_mbps:500.0)
      with
      P.warmup_days = 0;
    }
  in
  let r =
    P.run cfg (P.Mip { fast_mip with P.engine = { fast_mip.P.engine with Vod_epf.Engine.max_passes = 8 } })
  in
  (* Bootstrap + updates at 7, 14, 21, 28. *)
  Alcotest.(check int) "five solves" 5 (List.length r.P.solves);
  Alcotest.(check int) "four migrations" 4 (List.length r.P.migrations);
  (* With no warmup every request is recorded: played exactly once. *)
  Alcotest.(check int) "request conservation"
    (Vod_workload.Trace.length sc.Sc.trace)
    r.P.metrics.Vod_sim.Metrics.requests;
  pipeline_conservation r

(* A warm-up as long as the trace would record nothing: refused before
   any playout or solve, for caching and MIP schemes alike. *)
let pipeline_rejects_warmup_past_trace () =
  let sc = tiny_scenario () in
  let cfg warmup_days =
    {
      (P.default_config ~scenario:sc ~disk_gb:(Sc.uniform_disk sc ~multiple:2.0)
         ~link_capacity_mbps:500.0)
      with
      P.warmup_days;
    }
  in
  List.iter
    (fun (warmup_days, scheme) ->
      Alcotest.check_raises
        (Printf.sprintf "%s, warm-up %d" (P.scheme_name (cfg warmup_days) scheme) warmup_days)
        (Invalid_argument
           (Printf.sprintf "Pipeline.run: warmup_days %d leaves nothing of a 21-day trace"
              warmup_days))
        (fun () -> ignore (P.run (cfg warmup_days) scheme)))
    [
      (21, P.Random_cache Vod_cache.Cache.Lru);
      (30, P.Random_cache Vod_cache.Cache.Lru);
      (21, P.Mip fast_mip);
    ]

let scheme_names () =
  let sc = tiny_scenario () in
  let cfg =
    P.default_config ~scenario:sc ~disk_gb:(Sc.uniform_disk sc ~multiple:2.0)
      ~link_capacity_mbps:500.0
  in
  Alcotest.(check string) "lru name" "random+lru" (P.scheme_name cfg (P.Random_cache Vod_cache.Cache.Lru));
  Alcotest.(check string) "topk name" "top7+lru" (P.scheme_name cfg (P.Topk_lru 7))

let suite =
  [
    Alcotest.test_case "scenario construction" `Quick scenario_construction;
    Alcotest.test_case "hetero disk shape" `Quick hetero_disk_shape;
    Alcotest.test_case "demand of week" `Quick demand_of_week_works;
    Alcotest.test_case "scenario around a trace" `Quick assemble_matches_make;
    Alcotest.test_case "pipeline mip" `Slow pipeline_mip;
    Alcotest.test_case "pipeline mip biweekly" `Slow pipeline_mip_biweekly;
    Alcotest.test_case "pipeline random lru" `Quick pipeline_random_lru;
    Alcotest.test_case "pipeline random lfu" `Quick pipeline_random_lfu;
    Alcotest.test_case "pipeline topk" `Quick pipeline_topk;
    Alcotest.test_case "pipeline origin" `Quick pipeline_origin;
    Alcotest.test_case "estimation ordering" `Slow estimation_ordering;
    Alcotest.test_case "update schedule tiling" `Quick update_schedule_tiling;
    Alcotest.test_case "30d weekly regression" `Slow pipeline_30d_weekly_regression;
    Alcotest.test_case "scheme names" `Quick scheme_names;
    Alcotest.test_case "warm-up past the trace rejected" `Quick
      pipeline_rejects_warmup_past_trace;
  ]
