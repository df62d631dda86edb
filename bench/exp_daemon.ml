(* Continuous re-placement vs batch updates (the online extension of
   Sec. VII-H): the same faulted scenario — one VHO outage plus a
   per-link playout budget — served three ways. Weekly and daily batch
   pipelines re-solve at fixed day boundaries and migrate everything at
   once; the daemon replans every six hours (and at every fault/repair
   event) on a sliding demand window, warm-starting the solver from the
   incumbent placement and migrating only what a per-replan byte budget
   affords. The point of the exhibit: continuous small deltas track
   demand drift and route around the outage at a fraction of the batch
   policies' migration bytes. *)

let videos =
  match Common.scale with
  | Common.Quick -> 250
  | Common.Default -> 600
  | Common.Full | Common.Huge -> 1500

let days = 10
let warmup_days = 3
let seed = 11

let scenario () =
  Vod_core.Scenario.backbone ~days ~requests_per_video_per_day:8.0 ~seed
    ~n_videos:videos ()

type row = {
  policy : string;
  replans : int;
  moved_gb : float;
  applied : int;
  deferred : int;
  metrics : Vod_sim.Metrics.t;
}

let fmt_row r =
  [
    r.policy;
    string_of_int r.replans;
    Printf.sprintf "%.0f" r.moved_gb;
    string_of_int r.applied;
    string_of_int r.deferred;
    Common.fmt_pct (Vod_sim.Metrics.rejection_rate r.metrics);
    Common.fmt_pct (Vod_sim.Metrics.local_fraction r.metrics);
    Common.fmt_gbps (Vod_sim.Metrics.max_link_mbps r.metrics);
  ]

let batch_row policy (r : Vod_core.Pipeline.result) =
  let applied = List.fold_left (fun acc (t, _) -> acc + t) 0 r.Vod_core.Pipeline.migrations in
  let moved_gb =
    List.fold_left (fun acc (_, gb) -> acc +. gb) 0.0 r.Vod_core.Pipeline.migrations
  in
  {
    policy;
    replans = List.length r.Vod_core.Pipeline.migrations;
    moved_gb;
    applied;
    deferred = 0;
    metrics = r.Vod_core.Pipeline.metrics;
  }

let run () =
  Common.section
    "exp_daemon — continuous re-placement vs weekly/daily batch updates";
  let sc = scenario () in
  let lp_link = Common.calibrate_link_capacity sc ~disk_multiple:2.0 in
  let playout_cap = 1.5 *. lp_link in
  (* The canned outage window (40-70 % of the trace) falls inside the
     bootstrap week here, before any replan boundary exists. Place the
     outage of the same target VHO explicitly at days 7.3-8.3 — off the
     6-hour tick grid, so the daemon replans at the failure and repair
     instants themselves, while the daily batch sees them only at the
     next day boundary and the weekly batch never does. *)
  let fault_vho = Vod_core.Scenario.default_fault_vho sc in
  let spd = Vod_workload.Trace.seconds_per_day in
  let schedule =
    Vod_resil.Event.create
      [
        { Vod_resil.Event.time_s = 7.3 *. spd;
          kind = Vod_resil.Event.Vho_down fault_vho };
        { Vod_resil.Event.time_s = 8.3 *. spd;
          kind = Vod_resil.Event.Vho_up fault_vho };
      ]
  in
  let resil =
    Vod_resil.Playout.config ~schedule ~link_capacity_mbps:playout_cap ()
  in
  Common.note
    "LP link constraint %.0f Mb/s; playout budget %.0f Mb/s; VHO %d dark days 7.3-8.3"
    lp_link playout_cap fault_vho;
  let mip = Common.mip_config in
  let cfg =
    let base =
      Common.pipeline_config ~disk_multiple:2.0 ~link_capacity_mbps:lp_link sc
    in
    { base with Vod_core.Pipeline.warmup_days; Vod_core.Pipeline.resil = Some resil }
  in
  let batch update_days =
    Vod_core.Pipeline.run cfg
      (Vod_core.Pipeline.Mip { mip with Vod_core.Pipeline.update_days })
  in
  let weekly, dt_w = Common.timed (fun () -> batch 7) in
  Common.note "  weekly batch: %.1fs" dt_w;
  let daily, dt_d = Common.timed (fun () -> batch 1) in
  Common.note "  daily batch: %.1fs" dt_d;
  (* The daemon's per-replan byte budget: an eighth of what the daily
     batch moved in total — small enough that the budget visibly defers
     deltas, large enough to track the outage. (The weekly batch is no
     yardstick: its single update can move ~nothing when the day-7
     prediction matches the bootstrap week.) *)
  let daily_gb =
    List.fold_left (fun acc (_, gb) -> acc +. gb) 0.0
      daily.Vod_core.Pipeline.migrations
  in
  let budget_gb = Float.max 25.0 (daily_gb /. 8.0) in
  let daemon_cfg =
    {
      Vod_serve.Daemon.default_config with
      Vod_serve.Daemon.estimator = mip.Vod_core.Pipeline.estimator;
      Vod_serve.Daemon.migration_budget_gb = budget_gb;
    }
  in
  let problem = Vod_core.Pipeline.replan_problem cfg mip in
  let dres, dt_c =
    Common.timed (fun () ->
        Vod_serve.Daemon.run ~graph:sc.Vod_core.Scenario.graph
          ~paths:sc.Vod_core.Scenario.paths ~catalog:sc.Vod_core.Scenario.catalog
          ~trace:sc.Vod_core.Scenario.trace ~problem ~resil
          ~record_from:
            (float_of_int warmup_days *. Vod_workload.Trace.seconds_per_day)
          daemon_cfg)
  in
  Common.note "  daemon (6h cadence, %.0f GB/replan budget): %.1fs" budget_gb
    dt_c;
  let daemon_row =
    {
      policy = "continuous (6h)";
      replans = List.length dres.Vod_serve.Daemon.replans - 1;
      moved_gb = Vod_serve.Daemon.total_moved_gb dres;
      applied = Vod_serve.Daemon.total_applied dres;
      deferred = Vod_serve.Daemon.total_deferred dres;
      metrics = dres.Vod_serve.Daemon.metrics;
    }
  in
  Vod_util.Table.print
    ~header:
      [
        "update policy"; "replans"; "GB moved"; "deltas applied";
        "deltas deferred"; "rejected"; "locally served"; "max BW (Gb/s)";
      ]
    [ fmt_row (batch_row "weekly batch" weekly);
      fmt_row (batch_row "daily batch" daily);
      fmt_row daemon_row ];
  let fault_replans =
    List.length
      (List.filter
         (fun (r : Vod_serve.Daemon.replan) ->
           r.Vod_serve.Daemon.trigger <> "periodic"
           && r.Vod_serve.Daemon.trigger <> "bootstrap")
         dres.Vod_serve.Daemon.replans)
  in
  Common.note
    "daemon: %d of %d replans were fault-triggered; batch policies replan only at day boundaries."
    fault_replans daemon_row.replans
