(* The online re-placement daemon: continuous ingest of the request
   stream through the unified serving loop, periodic demand
   re-estimation on a sliding window, warm-started EPF re-solves from
   the incumbent placement, and incremental placement deltas under a
   migration-byte budget — the continuous counterpart of the paper's
   Sec. VII-H batch update policies.

   State machine per replan boundary (periodic tick or, with
   [react_to_faults], a fault/repair event):

     serve --> estimate --> solve --> restrict --> apply --> serve
                (predict_at)  (warm)    (budget)   (set_fleet)

   With an infinite budget, warm start off, no fault reaction and a
   cadence of whole days, every step degenerates to a batch update: this
   is how the batch pipeline (Vod_core.Pipeline) runs its MIP scheme, so
   the two agree by construction. test/test_serve.ml checks the daily
   configuration against a recorded batch run
   (test/golden/pipeline_mip_daily.golden). *)

module Obs = Vod_obs.Obs

let src = Logs.Src.create "vod.daemon" ~doc:"online re-placement daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  estimator : Vod_workload.Estimator.strategy;
  update_every_s : float;   (* periodic replan cadence *)
  migration_budget_gb : float;  (* per replan; infinity = unrestricted *)
  warm_start : bool;        (* warm the EPF engine from the incumbent *)
  react_to_faults : bool;   (* replan on fault/repair events too *)
}

let default_config =
  {
    estimator = Vod_workload.Estimator.Series_blockbuster;
    update_every_s = 6.0 *. 3600.0;
    migration_budget_gb = Float.infinity;
    warm_start = true;
    react_to_faults = true;
  }

(* One replan record: when, why, the solve behind it and how much of it
   the budget let through. *)
type replan = {
  t_s : float;
  trigger : string;   (* "bootstrap", "periodic" or an event kind *)
  report : Vod_placement.Solve.report;
  applied : int;
  deferred : int;
  moved_gb : float;
}

type result = {
  metrics : Vod_sim.Metrics.t;
  replans : replan list;   (* oldest first; head is the bootstrap *)
  windows : Vod_resil.Playout.window list;
  final : Vod_placement.Solution.t;
}

let week_s = 7.0 *. Vod_workload.Trace.seconds_per_day

(* Replan boundaries: periodic ticks from the end of the bootstrap week
   to the horizon, merged with the fault timeline's event instants when
   reacting to faults. Periodic ticks keep their label on collisions. A
   cadence that is not positive (or NaN) would never reach the horizon. *)
let boundaries (cfg : config) ?resil ~horizon_s () =
  if not (cfg.update_every_s > 0.0) then
    invalid_arg "Daemon.boundaries: update_every_s must be positive";
  let ticks = ref [] in
  let t = ref week_s in
  while !t < horizon_s do
    ticks := (!t, "periodic") :: !ticks;
    t := !t +. cfg.update_every_s
  done;
  let events =
    match resil with
    | Some (rc : Vod_resil.Playout.config) when cfg.react_to_faults ->
        Array.to_list rc.Vod_resil.Playout.schedule
        |> List.filter_map (fun (e : Vod_resil.Event.t) ->
               if e.Vod_resil.Event.time_s > week_s
                  && e.Vod_resil.Event.time_s < horizon_s
               then
                 Some
                   ( e.Vod_resil.Event.time_s,
                     Vod_resil.Event.kind_to_string e.Vod_resil.Event.kind )
               else None)
    | Some _ | None -> []
  in
  let all =
    List.stable_sort
      (fun (t1, _) (t2, _) -> Float.compare t1 t2)
      (List.rev !ticks @ events)
  in
  (* Dedupe exact-time collisions, keeping the first (periodic sorts
     before events at equal times by the stable sort's input order). *)
  let rec dedupe = function
    | (t1, lab) :: (t2, _) :: rest when t1 = t2 -> dedupe ((t1, lab) :: rest)
    | b :: rest -> b :: dedupe rest
    | [] -> []
  in
  dedupe all

let run ~graph ~paths ~catalog ~(trace : Vod_workload.Trace.t)
    ~(problem : Replan.problem) ?resil ?(record_from = 0.0) (cfg : config) =
  let horizon_s =
    float_of_int trace.Vod_workload.Trace.days
    *. Vod_workload.Trace.seconds_per_day
  in
  (* Before the bootstrap solve, so a bad cadence, budget, schedule or
     origin fails at once. NaN fails the [>= 0.] test. *)
  let schedule = boundaries cfg ?resil ~horizon_s () in
  if not (cfg.migration_budget_gb >= 0.0) then
    invalid_arg "Daemon.run: migration_budget_gb must be non-negative";
  let n_vhos = Vod_topology.Graph.n_nodes graph in
  let n_links = Vod_topology.Graph.n_links graph in
  Option.iter (fun rc -> Vod_resil.Playout.validate rc ~n_vhos ~n_links) resil;
  let metrics =
    Vod_sim.Metrics.create ~n_links ~n_vhos ~horizon_s ~record_from ()
  in
  let cache_gb =
    Array.map (fun d -> d *. problem.Replan.cache_frac) problem.Replan.disk_gb
  in
  let fleet_of sol =
    Vod_cache.Fleet.mip ~solution:sol ~paths ~catalog ~cache_gb
  in
  (* Bootstrap placement from the actual first week — the paper's
     initial pre-population, done before the service opens. *)
  let boot = Replan.solve problem (Replan.demand problem trace) in
  Obs.incr "serve/daemon/replans";
  let current = ref boot.Vod_placement.Solve.solution in
  let loop = Loop.create ~graph ~paths ~catalog ~fleet:(fleet_of !current) ?resil () in
  let replans =
    ref
      [
        {
          t_s = 0.0;
          trigger = "bootstrap";
          report = boot;
          applied = 0;
          deferred = 0;
          moved_gb = 0.0;
        };
      ]
  in
  let n_videos = Vod_workload.Catalog.n_videos catalog in
  (* Requests play as row ranges of the trace, between consecutive
     boundaries. *)
  let prev = ref 0.0 in
  let play_until t1_s =
    let lo, hi = Vod_workload.Trace.between trace ~t0_s:!prev ~t1_s in
    Loop.play_soa loop metrics trace ~lo ~hi
  in
  (* Replan.solve/restrict and Loop.play_soa validate their inputs and
     can raise mid-horizon; Loop.finish is idempotent, so settling the
     capacity ledger under Fun.protect keeps the normal path
     byte-identical while closing it on the exceptional one. *)
  Fun.protect
    ~finally:(fun () -> Loop.finish loop metrics)
    (fun () ->
      List.iter
        (fun (t_b, trigger) ->
          play_until t_b;
          Loop.advance loop ~now:t_b;
          let demand =
            Replan.demand problem
              (Vod_workload.Estimator.predict_at cfg.estimator catalog trace
                 ~t0_s:t_b)
          in
          let incumbent = if cfg.warm_start then Some !current else None in
          let down_vhos =
            if cfg.react_to_faults then
              Some (Array.init n_vhos (fun i -> not (Loop.vho_up loop i)))
            else None
          in
          let report = Replan.solve ?incumbent ?down_vhos problem demand in
          let priority =
            Array.init n_videos (Vod_workload.Demand.video_requests demand)
          in
          let delta =
            Replan.restrict ~catalog ~incumbent:!current
              ~target:report.Vod_placement.Solve.solution ~priority
              ~budget_gb:cfg.migration_budget_gb
          in
          current := delta.Replan.solution;
          Loop.set_fleet loop (fleet_of !current);
          replans :=
            {
              t_s = t_b;
              trigger;
              report;
              applied = delta.Replan.applied;
              deferred = delta.Replan.deferred;
              moved_gb = delta.Replan.moved_gb;
            }
            :: !replans;
          Obs.incr "serve/daemon/replans";
          if trigger <> "periodic" then Obs.incr "serve/daemon/fault_replans";
          Obs.incr ~by:delta.Replan.applied "serve/daemon/deltas_applied";
          Obs.incr ~by:delta.Replan.deferred "serve/daemon/deltas_deferred";
          Obs.push "serve/daemon/migration_gb" delta.Replan.moved_gb;
          Log.debug (fun m ->
              m "replan@%.0fs (%s): applied %d, deferred %d, %.1f GB moved" t_b
                trigger delta.Replan.applied delta.Replan.deferred
                delta.Replan.moved_gb);
          prev := t_b)
        schedule;
      play_until horizon_s);
  let replans = List.rev !replans in
  Log.info (fun m ->
      m "daemon: %d replans, %d requests, local %.1f%%, %d rejections"
        (List.length replans) metrics.Vod_sim.Metrics.requests
        (100.0 *. Vod_sim.Metrics.local_fraction metrics)
        metrics.Vod_sim.Metrics.deg.Vod_sim.Metrics.rejections);
  { metrics; replans; windows = Loop.windows loop; final = !current }

(* Aggregates for the bench exhibits. *)
let total_moved_gb result =
  List.fold_left (fun acc r -> acc +. r.moved_gb) 0.0 result.replans

let total_applied result =
  List.fold_left (fun acc r -> acc + r.applied) 0 result.replans

let total_deferred result =
  List.fold_left (fun acc r -> acc + r.deferred) 0 result.replans
