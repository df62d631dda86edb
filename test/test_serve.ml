(* Tests for lib/serve: the serving loop must reproduce the recorded
   outputs of the engines it replaced byte-for-byte (fault-free: the
   fixed-path Sim engine, faulted: the Resil.Playout engine; fixtures in
   test/golden/), the online daemon with an infinite budget, cold solves
   and daily ticks must reproduce the recorded daily batch pipeline, and
   the migration-budget restriction must respect its budget while keeping
   per-video copy sets atomic. *)

module E = Vod_resil.Event
module M = Vod_sim.Metrics
module P = Vod_core.Pipeline

let ev time_s kind = { E.time_s; kind }

(* ---------- loop vs the engines it replaced ---------- *)

(* Fault-free: the loop's direct configuration is the fixed-path
   engine. *)
let loop_matches_legacy_sim () =
  let m, windows =
    Golden.run_loop ~record_from:Vod_workload.Trace.seconds_per_day ()
  in
  Golden.check "sim_run" m windows;
  Alcotest.(check int) "no rejections" 0 m.M.deg.M.rejections;
  Alcotest.(check bool) "no windows in direct mode" true (windows = [])

(* Faulted: the loop's failover configuration is the resilience engine —
   same metrics, same degradation counters, same event windows. *)
let loop_matches_resil_playout () =
  let m, windows = Golden.run_loop ~resil:(Golden.faulted_config ()) () in
  Golden.check "playout_run" m windows;
  Alcotest.(check bool) "faulted something" true (m.M.deg.M.rejections > 0)

(* ---------- daemon vs the recorded batch pipeline ---------- *)

let daemon_scenario () =
  let graph =
    Vod_topology.Graph.create ~name:"ring6" ~n:6
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (0, 3) ]
      ~populations:[| 3.0; 1.0; 2.0; 1.0; 1.0; 1.0 |]
  in
  Vod_core.Scenario.make ~days:10 ~requests_per_video_per_day:8.0 ~seed:13
    ~graph ~n_videos:40 ()

let fast_mip =
  {
    P.default_mip with
    P.engine = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 15 };
  }

(* The degeneration contract: infinite budget, cold solves, no fault
   reaction and daily ticks reproduce the batch pipeline's daily
   replanning loop as recorded before the pipeline ran on the daemon:
   same metrics, same outage windows, same (transfers, GB) per update. *)
let daemon_matches_daily_batch () =
  let cfg = Golden.daily_outage_config () in
  let sc = cfg.P.scenario in
  let catalog = sc.Vod_core.Scenario.catalog in
  let daemon_cfg =
    {
      Vod_serve.Daemon.default_config with
      Vod_serve.Daemon.update_every_s = Vod_workload.Trace.seconds_per_day;
      Vod_serve.Daemon.warm_start = false;
      Vod_serve.Daemon.react_to_faults = false;
    }
  in
  let d =
    Vod_serve.Daemon.run ~graph:sc.Vod_core.Scenario.graph
      ~paths:sc.Vod_core.Scenario.paths ~catalog
      ~trace:sc.Vod_core.Scenario.trace
      ~problem:(P.replan_problem cfg Golden.daily_mip)
      ?resil:cfg.P.resil ~bin_s:cfg.P.bin_s
      ~record_from:
        (float_of_int cfg.P.warmup_days *. Vod_workload.Trace.seconds_per_day)
      daemon_cfg
  in
  let rec migrations = function
    | (a : Vod_serve.Daemon.replan) :: (b :: _ as rest) ->
        Vod_placement.Solution.migration
          ~old_sol:a.Vod_serve.Daemon.report.Vod_placement.Solve.solution
          ~new_sol:b.Vod_serve.Daemon.report.Vod_placement.Solve.solution
          catalog
        :: migrations rest
    | [ _ ] | [] -> []
  in
  Golden.check ~migrations:(migrations d.Vod_serve.Daemon.replans)
    "pipeline_mip_daily" d.Vod_serve.Daemon.metrics d.Vod_serve.Daemon.windows;
  Alcotest.(check int) "bootstrap + daily replans" 4
    (List.length d.Vod_serve.Daemon.replans);
  Alcotest.(check int) "nothing deferred" 0 (Vod_serve.Daemon.total_deferred d)

(* ---------- budget restriction ---------- *)

let two_placements () =
  let sc = daemon_scenario () in
  let cfg =
    P.default_config ~scenario:sc
      ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:2.5)
      ~link_capacity_mbps:500.0
  in
  let pb = P.replan_problem cfg fast_mip in
  let week day0 =
    let requests =
      Vod_workload.Trace.between_days sc.Vod_core.Scenario.trace ~day_lo:day0
        ~day_hi:(day0 + 7)
    in
    Vod_serve.Replan.demand pb
      ~t0_s:(float_of_int day0 *. Vod_workload.Trace.seconds_per_day)
      requests
  in
  let d0 = week 0 and d3 = week 3 in
  let incumbent =
    (Vod_serve.Replan.solve pb d0).Vod_placement.Solve.solution
  in
  let target = (Vod_serve.Replan.solve pb d3).Vod_placement.Solve.solution in
  let n = Vod_workload.Catalog.n_videos sc.Vod_core.Scenario.catalog in
  let priority = Array.init n (Vod_workload.Demand.video_requests d3) in
  (sc.Vod_core.Scenario.catalog, incumbent, target, priority)

let same_set (a : int array) (b : int array) =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> x = y) a b

let restrict_budget_properties () =
  let catalog, incumbent, target, priority = two_placements () in
  let restrict budget_gb =
    Vod_serve.Replan.restrict ~catalog ~incumbent ~target ~priority ~budget_gb
  in
  let all = restrict Float.infinity in
  Alcotest.(check bool) "infinite budget returns the target itself" true
    (all.Vod_serve.Replan.solution == target);
  Alcotest.(check int) "nothing deferred" 0 all.Vod_serve.Replan.deferred;
  Alcotest.(check bool) "placements actually differ" true
    (all.Vod_serve.Replan.applied > 0 && all.Vod_serve.Replan.moved_gb > 0.0);
  let none = restrict 0.0 in
  Alcotest.(check (float 1e-9)) "zero budget moves nothing" 0.0
    none.Vod_serve.Replan.moved_gb;
  Alcotest.(check int) "zero budget applies nothing" 0
    none.Vod_serve.Replan.applied;
  Alcotest.(check int) "zero budget defers every costly video"
    all.Vod_serve.Replan.applied none.Vod_serve.Replan.deferred;
  let half = restrict (all.Vod_serve.Replan.moved_gb /. 2.0) in
  Alcotest.(check bool) "half budget respected" true
    (half.Vod_serve.Replan.moved_gb <= all.Vod_serve.Replan.moved_gb /. 2.0);
  Alcotest.(check int) "applied + deferred conserved"
    all.Vod_serve.Replan.applied
    (half.Vod_serve.Replan.applied + half.Vod_serve.Replan.deferred);
  Alcotest.(check bool) "budget binds at half" true
    (half.Vod_serve.Replan.deferred > 0);
  (* Per-video atomicity: every copy set in the hybrid is either the
     incumbent's or the target's, never a mixture. *)
  Array.iteri
    (fun video hybrid ->
      Alcotest.(check bool)
        (Printf.sprintf "video %d atomic" video)
        true
        (same_set hybrid incumbent.Vod_placement.Solution.stored.(video)
        || same_set hybrid target.Vod_placement.Solution.stored.(video)))
    half.Vod_serve.Replan.solution.Vod_placement.Solution.stored

(* ---------- sliding-window estimation ---------- *)

(* predict_at at a day-aligned instant with the default week of history
   reproduces the day-sliced weeks exactly: the oracle is the coming
   week, the history replay is last week shifted one week forward, and
   series+blockbuster adds its clones after that replay. *)
let predict_at_matches_day_sliced_weeks () =
  let sc = daemon_scenario () in
  let catalog = sc.Vod_core.Scenario.catalog in
  let trace = sc.Vod_core.Scenario.trace in
  let week_s = 7.0 *. Vod_workload.Trace.seconds_per_day in
  let predict strategy =
    Vod_workload.Estimator.predict_at strategy catalog trace ~t0_s:week_s
  in
  let last_week_shifted =
    Array.map
      (fun (r : Vod_workload.Trace.request) ->
        { r with Vod_workload.Trace.time_s = r.Vod_workload.Trace.time_s +. week_s })
      (Vod_workload.Trace.between_days trace ~day_lo:0 ~day_hi:7)
  in
  Alcotest.(check bool) "perfect = the coming week" true
    (predict Vod_workload.Estimator.Perfect
    = Vod_workload.Trace.between_days trace ~day_lo:7 ~day_hi:14);
  Alcotest.(check bool) "no-estimate = last week shifted" true
    (predict Vod_workload.Estimator.History_only = last_week_shifted);
  let series = predict Vod_workload.Estimator.Series_blockbuster in
  let n = Array.length last_week_shifted in
  Alcotest.(check bool) "series+blockbuster adds clones" true
    (Array.length series >= n);
  Alcotest.(check bool) "series+blockbuster starts with the replay" true
    (Array.sub series 0 n = last_week_shifted)

(* Daemon boundary schedule: periodic ticks, fault merging, dedupe. *)
let daemon_boundaries () =
  let day = Vod_workload.Trace.seconds_per_day in
  let cfg =
    {
      Vod_serve.Daemon.default_config with
      Vod_serve.Daemon.update_every_s = day;
    }
  in
  let ticks = Vod_serve.Daemon.boundaries cfg ~horizon_s:(10.0 *. day) () in
  Alcotest.(check int) "daily ticks from day 7" 3 (List.length ticks);
  Alcotest.(check bool) "all periodic" true
    (List.for_all (fun (_, lab) -> lab = "periodic") ticks);
  let schedule =
    E.create
      [
        ev (5.0 *. day) (E.Vho_down 0);   (* inside bootstrap week: ignored *)
        ev (7.0 *. day) (E.Vho_up 0);     (* collides with a tick: deduped *)
        ev (8.5 *. day) (E.Vho_down 1);
      ]
  in
  let resil = Vod_resil.Playout.config ~schedule () in
  let merged = Vod_serve.Daemon.boundaries cfg ~resil ~horizon_s:(10.0 *. day) () in
  Alcotest.(check int) "3 ticks + 1 event" 4 (List.length merged);
  let times = List.map fst merged in
  Alcotest.(check bool) "sorted" true
    (List.sort compare times = times);
  Alcotest.(check bool) "event boundary present" true
    (List.mem_assoc (8.5 *. day) merged);
  Alcotest.(check string) "collision keeps the periodic label" "periodic"
    (List.assoc (7.0 *. day) merged);
  let no_react =
    Vod_serve.Daemon.boundaries
      { cfg with Vod_serve.Daemon.react_to_faults = false }
      ~resil ~horizon_s:(10.0 *. day) ()
  in
  Alcotest.(check int) "react off drops events" 3 (List.length no_react)

(* ---------- exceptional-path settlement ---------- *)

(* Regression tests for the missing-protect defects vodlint's protocol
   analysis surfaced: when [play_soa] raises mid-run, the Fun.protect in
   [Loop.run_soa] / [Daemon.run] must still settle the capacity ledger,
   so [finish]'s telemetry is published on the exceptional path too. The
   raise comes from Metrics.validate_store: the store claims more VHOs
   than the topology the metrics were sized for. *)

let check_gauge_settled reg name =
  match Vod_obs.Obs.read reg name with
  | Some (Vod_obs.Obs.Gauge _) -> ()
  | _ ->
      Alcotest.fail
        (name ^ " must be published even when play raises mid-run")

(* Loop.finish only publishes the saturation gauge in the failover
   configuration, so run the loop with a (fault-free) resil config. *)
let loop_settles_on_raise () =
  let g, paths, catalog, trace = Golden.sim_world () in
  let resil = Vod_resil.Playout.config ~link_capacity_mbps:120.0 ~origin:2 () in
  let store =
    Vod_workload.Trace_soa.of_trace { trace with Vod_workload.Trace.n_vhos = 99 }
  in
  let reg = Vod_obs.Obs.create () in
  let raised = ref false in
  (try
     Vod_obs.Obs.with_run reg (fun () ->
         ignore
           (Vod_serve.Loop.run_soa ~graph:g ~paths ~catalog
              ~fleet:(Golden.lru_fleet paths catalog) ~store ~resil ()))
   with Invalid_argument _ -> raised := true);
  Alcotest.(check bool) "play raised" true !raised;
  check_gauge_settled reg "serve/link_saturated_seconds"

(* The trace's rows are all valid, so the bootstrap solve outside the
   daemon's Fun.protect succeeds; the first play inside it raises. *)
let daemon_settles_on_raise () =
  let sc = daemon_scenario () in
  let cfg =
    P.default_config ~scenario:sc
      ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:2.5)
      ~link_capacity_mbps:500.0
  in
  let trace =
    { sc.Vod_core.Scenario.trace with Vod_workload.Trace.n_vhos = 99 }
  in
  let resil = Vod_resil.Playout.config ~link_capacity_mbps:500.0 () in
  let daemon_cfg =
    {
      Vod_serve.Daemon.default_config with
      Vod_serve.Daemon.update_every_s = Vod_workload.Trace.seconds_per_day;
      Vod_serve.Daemon.warm_start = false;
      Vod_serve.Daemon.react_to_faults = false;
    }
  in
  let reg = Vod_obs.Obs.create () in
  let raised = ref false in
  (try
     Vod_obs.Obs.with_run reg (fun () ->
         ignore
           (Vod_serve.Daemon.run ~graph:sc.Vod_core.Scenario.graph
              ~paths:sc.Vod_core.Scenario.paths
              ~catalog:sc.Vod_core.Scenario.catalog ~trace
              ~problem:(P.replan_problem cfg fast_mip)
              ~resil daemon_cfg))
   with Invalid_argument _ -> raised := true);
  Alcotest.(check bool) "play raised" true !raised;
  check_gauge_settled reg "serve/link_saturated_seconds"

let suite =
  [
    Alcotest.test_case "loop matches legacy sim" `Quick loop_matches_legacy_sim;
    Alcotest.test_case "loop matches resil playout" `Quick
      loop_matches_resil_playout;
    Alcotest.test_case "daemon matches daily batch" `Slow
      daemon_matches_daily_batch;
    Alcotest.test_case "restrict budget properties" `Slow
      restrict_budget_properties;
    Alcotest.test_case "predict_at matches day-sliced weeks" `Quick
      predict_at_matches_day_sliced_weeks;
    Alcotest.test_case "daemon boundaries" `Quick daemon_boundaries;
    Alcotest.test_case "loop settles ledger on raise" `Quick
      loop_settles_on_raise;
    Alcotest.test_case "daemon settles ledger on raise" `Slow
      daemon_settles_on_raise;
  ]
