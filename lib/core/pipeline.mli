(** End-to-end evaluation pipeline (paper Sec. VII): play a month of
    requests against one distribution scheme, with periodic MIP re-solves
    driven by demand estimation, and record metrics after warm-up.

    The pipeline has no loop of its own. The MIP scheme is the online
    re-placement daemon ({!Vod_serve.Daemon.run}) at a fixed cadence of
    [update_days] days, with cold solves, an unlimited migration budget
    and no fault reaction; the caching schemes are one playout of the
    serving loop ({!Vod_serve.Loop.run_soa}). *)

type mip_config = {
  estimator : Vod_workload.Estimator.strategy;
  cache_frac : float;   (** complementary-LRU share of each VHO's disk *)
  update_days : int;
      (** placement update period (7 = weekly); must be positive *)
  engine : Vod_epf.Engine.params;
  solver : string;
      (** placement solver name, one of
          {!Vod_placement.Solve.solvers}; ["epf"] keeps the historical
          behavior *)
}

(** Series+blockbuster estimation, 5% cache, weekly updates. *)
val default_mip : mip_config

type scheme =
  | Mip of mip_config
  | Random_cache of Vod_cache.Cache.policy
  | Topk_lru of int
  | Origin_lru of int

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
      (** [Some _] plays out through the serving loop's faulted
          configuration instead of its direct one *)
}

(** 9 warm-up days, |T| = 2 one-hour windows, 5-minute bins, no faults. *)
val default_config :
  scenario:Scenario.t ->
  disk_gb:float array ->
  link_capacity_mbps:float ->
  config

type result = {
  scheme_name : string;
  metrics : Vod_sim.Metrics.t;
  solves : Vod_placement.Solve.report list;
      (** in update order, bootstrap first; MIP only *)
  migrations : (int * float) list;
      (** (transfers, GB) per update, in update order — one entry per
          element of [solves] after the bootstrap *)
  resil_windows : Vod_resil.Playout.window list;
      (** per-event serving windows; [[]] without a resil config *)
}

(** Run one scheme over the scenario's full trace, played through the
    serving loop ([Vod_serve.Loop]). For [Mip m] the bootstrap
    placement is solved from the actual first week and serves days
    [0, 7); updates then run every [m.update_days] from day 7 while
    strictly inside the trace (the daemon's periodic boundaries), so a
    final partial period is shorter, never dropped.
    Raises [Invalid_argument] if [m.update_days] is not positive. *)
val run : config -> scheme -> result

(** Human-readable scheme label. *)
val scheme_name : config -> scheme -> string

(** Demand ranking from the first week (Top-K's input; exposed for
    benches). *)
val first_week_ranking : config -> int array

(** The re-placement problem the MIP scheme's daemon run solves; front
    ends pass it to their own {!Vod_serve.Daemon.run} configurations. *)
val replan_problem : config -> mip_config -> Vod_serve.Replan.problem

(** The most recent placement of a result (the last element of
    [solves]), if the scheme was MIP. *)
val last_solution : result -> Vod_placement.Solution.t option
