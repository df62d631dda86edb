(* The end-to-end evaluation pipeline of the paper's Sec. VII: play a
   month of requests against one distribution scheme, re-solving and
   re-applying the MIP placement periodically (weekly by default) using
   estimated demand, and record link loads and serving statistics after a
   warm-up period. It has no loop of its own: the MIP scheme runs on the
   re-placement daemon (Vod_serve.Daemon) at a fixed cadence, the caching
   schemes on one serving-loop playout (Vod_serve.Loop.run_soa). *)

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

let record_from cfg =
  float_of_int cfg.warmup_days *. Vod_workload.Trace.seconds_per_day

(* Demand ranking from the first week (what a provider would know before
   the measured period), used by Top-K. *)
let first_week_ranking cfg =
  let sc = cfg.scenario in
  let demand = Scenario.demand_of_week sc ~day0:0 ~n_windows:cfg.n_windows ~window_s:cfg.window_s () in
  Vod_workload.Demand.rank_by_demand demand

(* The static re-placement problem of the MIP scheme's solves, and of
   the online daemon runs the front ends configure alongside it. *)
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

(* (transfers, GB) from each solve's placement to the next one's,
   oldest first. *)
let rec migrations catalog = function
  | (old_r : Vod_placement.Solve.report) :: (new_r :: _ as rest) ->
      Vod_placement.Solution.migration ~old_sol:old_r.Vod_placement.Solve.solution
        ~new_sol:new_r.Vod_placement.Solve.solution catalog
      :: migrations catalog rest
  | [ _ ] | [] -> []

(* The MIP scheme is the daemon at a fixed cadence of [update_days]
   days: it bootstraps from the actual first week, then re-solves cold
   from the estimator's prediction at day 7, 7 + update_days, ... while
   strictly inside the trace, and adopts each solve whole. *)
let run_mip cfg (m : mip_config) =
  let sc = cfg.scenario in
  let d =
    Vod_serve.Daemon.run ~graph:sc.Scenario.graph ~paths:sc.Scenario.paths
      ~catalog:sc.Scenario.catalog ~trace:sc.Scenario.trace
      ~problem:(replan_problem cfg m) ?resil:cfg.resil ~bin_s:cfg.bin_s
      ~record_from:(record_from cfg)
      {
        Vod_serve.Daemon.default_config with
        Vod_serve.Daemon.estimator = m.estimator;
        update_every_s =
          float_of_int m.update_days *. Vod_workload.Trace.seconds_per_day;
        migration_budget_gb = Float.infinity;
        warm_start = false;
        react_to_faults = false;
      }
  in
  let solves =
    List.map (fun (r : Vod_serve.Daemon.replan) -> r.Vod_serve.Daemon.report)
      d.Vod_serve.Daemon.replans
  in
  {
    scheme_name = scheme_name cfg (Mip m);
    metrics = d.Vod_serve.Daemon.metrics;
    solves;
    migrations = migrations sc.Scenario.catalog solves;
    resil_windows = d.Vod_serve.Daemon.windows;
  }

(* The caching schemes are one playout of the serving loop over the
   trace. *)
let run cfg scheme =
  let sc = cfg.scenario in
  let playout fleet =
    let metrics, resil_windows =
      Vod_serve.Loop.run_soa ~graph:sc.Scenario.graph ~paths:sc.Scenario.paths
        ~catalog:sc.Scenario.catalog ~fleet
        ~store:sc.Scenario.trace
        ~bin_s:cfg.bin_s ~record_from:(record_from cfg) ?resil:cfg.resil ()
    in
    {
      scheme_name = scheme_name cfg scheme;
      metrics;
      solves = [];
      migrations = [];
      resil_windows;
    }
  in
  match scheme with
  | Mip m -> run_mip cfg m
  | Random_cache policy ->
      playout
        (Vod_cache.Fleet.random_single ~paths:sc.Scenario.paths
           ~catalog:sc.Scenario.catalog ~disk_gb:cfg.disk_gb ~policy
           ~seed:cfg.seed)
  | Topk_lru k ->
      playout
        (Vod_cache.Fleet.topk ~k ~ranked:(first_week_ranking cfg)
           ~paths:sc.Scenario.paths ~catalog:sc.Scenario.catalog
           ~disk_gb:cfg.disk_gb ~seed:cfg.seed)
  | Origin_lru regions ->
      playout
        (Vod_cache.Fleet.origin_regions ~regions ~graph:sc.Scenario.graph
           ~paths:sc.Scenario.paths ~catalog:sc.Scenario.catalog
           ~disk_gb:cfg.disk_gb)

(* Latest placement of a result, if any (for Figs. 7/8 analyses);
   [solves] reads oldest-first, so the placement in force at the end of
   the run is the last element. *)
let last_solution result =
  match List.rev result.solves with
  | [] -> None
  | report :: _ -> Some report.Vod_placement.Solve.solution
