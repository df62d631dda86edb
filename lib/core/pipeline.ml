(* The end-to-end evaluation pipeline of the paper's Sec. VII: play a
   month of requests against one distribution scheme, re-solving and
   re-applying the MIP placement periodically (weekly by default) using
   estimated demand, and record link loads and serving statistics after a
   warm-up period. *)

type mip_config = {
  estimator : Vod_workload.Estimator.strategy;
  cache_frac : float;     (* complementary-LRU share of each VHO's disk *)
  update_days : int;      (* placement update period (7 = weekly) *)
  engine : Vod_epf.Engine.params;
  solver : string;        (* Solve.solve solver name (Solve.solvers) *)
}

let default_mip =
  {
    estimator = Vod_workload.Estimator.Series_blockbuster;
    cache_frac = 0.05;
    update_days = 7;
    engine = Vod_epf.Engine.default_params;
    solver = "epf";
  }

type scheme =
  | Mip of mip_config
  | Random_cache of Vod_cache.Cache.policy
  | Topk_lru of int
  | Origin_lru of int   (* number of origin regions *)

type config = {
  scenario : Scenario.t;
  disk_gb : float array;
  link_capacity_mbps : float;
  warmup_days : int;
  n_windows : int;
  window_s : float;
  bin_s : float;
  seed : int;
  resil : Vod_resil.Playout.config option;
      (* Some _ switches the serving loop to its faulted configuration *)
}

let default_config ~scenario ~disk_gb ~link_capacity_mbps =
  {
    scenario;
    disk_gb;
    link_capacity_mbps;
    warmup_days = 9;
    n_windows = 2;
    window_s = 3600.0;
    bin_s = 300.0;
    seed = 7;
    resil = None;
  }

type result = {
  scheme_name : string;
  metrics : Vod_sim.Metrics.t;
  solves : Vod_placement.Solve.report list;
      (* in update order, bootstrap first *)
  migrations : (int * float) list;
      (* (transfers, GB) per update, in update order; one entry per
         element of [solves] after the bootstrap *)
  resil_windows : Vod_resil.Playout.window list;  (* [] without faults *)
}

let scheme_name cfg = function
  | Mip m ->
      (* Non-default solvers are tagged; the default stays byte-identical
         to the historical name (recorded exhibits depend on it). *)
      let solver_tag = if m.solver = "epf" then "" else "," ^ m.solver in
      Printf.sprintf "mip[%s%s,cache=%.0f%%,update=%dd]"
        (Vod_workload.Estimator.name m.estimator)
        solver_tag (100.0 *. m.cache_frac) m.update_days
  | Random_cache Vod_cache.Cache.Lru -> "random+lru"
  | Random_cache Vod_cache.Cache.Lfu -> "random+lfu"
  | Random_cache (Vod_cache.Cache.Lrfu lambda) ->
      Printf.sprintf "random+lrfu(%.2g)" lambda
  | Topk_lru k -> Printf.sprintf "top%d+lru" k
  | Origin_lru r -> ignore cfg; Printf.sprintf "origin%d+lru" r

let fresh_metrics cfg =
  let horizon_s =
    float_of_int cfg.scenario.Scenario.trace.Vod_workload.Trace.days
    *. Vod_workload.Trace.seconds_per_day
  in
  Vod_sim.Metrics.create
    ~n_links:(Vod_topology.Graph.n_links cfg.scenario.Scenario.graph)
    ~n_vhos:(Vod_topology.Graph.n_nodes cfg.scenario.Scenario.graph)
    ~horizon_s ~bin_s:cfg.bin_s
    ~record_from:(float_of_int cfg.warmup_days *. Vod_workload.Trace.seconds_per_day)
    ()

(* Playout runs on the serving loop (lib/serve): direct fixed-path
   serving, or — when the config carries a fault/capacity setup — the
   failover-routing configuration. *)
let make_engine cfg ~fleet =
  let sc = cfg.scenario in
  Vod_serve.Loop.create ~graph:sc.Scenario.graph ~paths:sc.Scenario.paths
    ~catalog:sc.Scenario.catalog ~fleet ?resil:cfg.resil ()

(* Demand ranking from the first week (what a provider would know before
   the measured period), used by Top-K. *)
let first_week_ranking cfg =
  let sc = cfg.scenario in
  let demand = Scenario.demand_of_week sc ~day0:0 ~n_windows:cfg.n_windows ~window_s:cfg.window_s () in
  Vod_workload.Demand.rank_by_demand demand

(* The static re-placement problem the weekly solves share with the
   online daemon (Vod_serve.Daemon): going through the same
   [Vod_serve.Replan] entry points is what makes a day-aligned daemon
   replan bit-identical to the batch pipeline's. *)
let replan_problem cfg (m : mip_config) =
  let sc = cfg.scenario in
  {
    Vod_serve.Replan.graph = sc.Scenario.graph;
    catalog = sc.Scenario.catalog;
    disk_gb = cfg.disk_gb;
    link_capacity_mbps = cfg.link_capacity_mbps;
    cache_frac = m.cache_frac;
    n_windows = cfg.n_windows;
    window_s = cfg.window_s;
    engine = m.engine;
    solver = m.solver;
  }

(* Solve a placement for the week starting at [day0] from a (predicted or
   actual) request batch. *)
let solve_week cfg (m : mip_config) requests ~day0 =
  let pb = replan_problem cfg m in
  Vod_serve.Replan.solve pb
    (Vod_serve.Replan.demand pb
       ~t0_s:(float_of_int day0 *. Vod_workload.Trace.seconds_per_day)
       requests)

(* MIP update days: the bootstrap placement (computed at day 0 from the
   actual first week) serves days [0, 7); updates then run every
   [update_days] from day 7 while strictly inside the trace. The
   resulting segments [0; u1), [u1; u2), ..., [u_k; days) tile the trace
   exactly — when [update_days] does not divide [days - 7] the final
   segment is simply shorter, never dropped or double-played (pinned by
   test/test_core.ml's 30-day / update_days=7 regression). *)
let update_schedule ~days ~update_days =
  if update_days <= 0 then
    invalid_arg "Pipeline.update_schedule: update_days must be positive";
  let updates = ref [] in
  let d = ref 7 in
  while !d < days do
    updates := !d :: !updates;
    d := !d + update_days
  done;
  List.rev !updates

let run_mip cfg (m : mip_config) =
  let sc = cfg.scenario in
  let trace = sc.Scenario.trace in
  let metrics = fresh_metrics cfg in
  let cache_gb = Array.map (fun d -> d *. m.cache_frac) cfg.disk_gb in
  (* Bootstrap placement at day 0 (computed from the actual first week —
     the paper's initial pre-population, done before the service opens),
     then periodic updates per [update_schedule], driven by the
     estimator. *)
  let updates =
    update_schedule ~days:trace.Vod_workload.Trace.days
      ~update_days:m.update_days
  in
  let boot_requests = Vod_workload.Trace.between_days trace ~day_lo:0 ~day_hi:7 in
  let boot = solve_week cfg m boot_requests ~day0:0 in
  let solves_rev = ref [ boot ] in
  let migrations_rev = ref [] in
  let current = ref boot.Vod_placement.Solve.solution in
  let fleet_of sol =
    Vod_cache.Fleet.mip ~solution:sol ~paths:sc.Scenario.paths
      ~catalog:sc.Scenario.catalog ~cache_gb
  in
  let engine = make_engine cfg ~fleet:(fleet_of !current) in
  (* Segments play as row ranges of the compact store: the same binary
     search over the identically ordered time column that slices the
     boxed trace. *)
  let store = Vod_workload.Trace_soa.of_trace trace in
  let play ~day_lo ~day_hi =
    let lo, hi = Vod_workload.Trace_soa.between_days store ~day_lo ~day_hi in
    Vod_serve.Loop.play_soa engine metrics store ~lo ~hi
  in
  let segment_bounds = updates @ [ trace.Vod_workload.Trace.days ] in
  let prev_day = ref 0 in
  List.iter
    (fun day ->
      play ~day_lo:!prev_day ~day_hi:day;
      if day < trace.Vod_workload.Trace.days then begin
        let predicted =
          Vod_workload.Estimator.predict m.estimator sc.Scenario.catalog trace
            ~week_start:day
        in
        let report = solve_week cfg m predicted ~day0:day in
        solves_rev := report :: !solves_rev;
        migrations_rev :=
          Vod_placement.Solution.migration ~old_sol:!current
            ~new_sol:report.Vod_placement.Solve.solution sc.Scenario.catalog
          :: !migrations_rev;
        current := report.Vod_placement.Solve.solution;
        Vod_serve.Loop.set_fleet engine (fleet_of !current)
      end;
      prev_day := day)
    segment_bounds;
  Vod_serve.Loop.finish engine metrics;
  {
    scheme_name = scheme_name cfg (Mip m);
    metrics;
    (* Both lists read oldest-first, in update order. *)
    solves = List.rev !solves_rev;
    migrations = List.rev !migrations_rev;
    resil_windows = Vod_serve.Loop.windows engine;
  }

let run_cache_scheme cfg scheme =
  let sc = cfg.scenario in
  let metrics = fresh_metrics cfg in
  let fleet =
    match scheme with
    | Random_cache policy ->
        Vod_cache.Fleet.random_single ~paths:sc.Scenario.paths
          ~catalog:sc.Scenario.catalog ~disk_gb:cfg.disk_gb ~policy
          ~seed:cfg.seed
    | Topk_lru k ->
        Vod_cache.Fleet.topk ~k ~ranked:(first_week_ranking cfg)
          ~paths:sc.Scenario.paths ~catalog:sc.Scenario.catalog
          ~disk_gb:cfg.disk_gb ~seed:cfg.seed
    | Origin_lru regions ->
        Vod_cache.Fleet.origin_regions ~regions ~graph:sc.Scenario.graph
          ~paths:sc.Scenario.paths ~catalog:sc.Scenario.catalog
          ~disk_gb:cfg.disk_gb
    | Mip _ -> invalid_arg "run_cache_scheme: use run_mip"
  in
  let engine = make_engine cfg ~fleet in
  let store = Vod_workload.Trace_soa.of_trace sc.Scenario.trace in
  Vod_serve.Loop.play_soa engine metrics store ~lo:0
    ~hi:(Vod_workload.Trace_soa.length store);
  Vod_serve.Loop.finish engine metrics;
  {
    scheme_name = scheme_name cfg scheme;
    metrics;
    solves = [];
    migrations = [];
    resil_windows = Vod_serve.Loop.windows engine;
  }

let run cfg = function
  | Mip m -> run_mip cfg m
  | (Random_cache _ | Topk_lru _ | Origin_lru _) as scheme ->
      run_cache_scheme cfg scheme

(* Latest placement of a result, if any (for Figs. 7/8 analyses);
   [solves] reads oldest-first, so the placement in force at the end of
   the run is the last element. *)
let last_solution result =
  match List.rev result.solves with
  | [] -> None
  | report :: _ -> Some report.Vod_placement.Solve.solution
