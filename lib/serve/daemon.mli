(** The online re-placement daemon: continuous ingest through the
    unified serving loop ({!Loop}), periodic demand re-estimation on a
    sliding window ([Vod_workload.Estimator.predict_at]), warm-started
    EPF re-solves from the incumbent placement, and incremental
    placement deltas under a migration-byte budget ({!Replan.restrict})
    — reacting to [lib/resil] fault state as well as demand drift.

    With an infinite budget, warm start off, no fault reaction and a
    cadence of whole days, the run is a batch update policy: the batch
    pipeline ([Vod_core.Pipeline]) runs its MIP scheme this way, and
    test/test_serve.ml checks the daily configuration against a recorded
    batch run (test/golden/pipeline_mip_daily.golden). Telemetry goes to
    the [serve/daemon/*] keys (METRICS.md). *)

type config = {
  estimator : Vod_workload.Estimator.strategy;
  update_every_s : float;  (** periodic replan cadence *)
  migration_budget_gb : float;
      (** per-replan transfer budget; [infinity] = unrestricted *)
  warm_start : bool;  (** warm the EPF engine from the incumbent *)
  react_to_faults : bool;  (** replan on fault/repair events too *)
}

(** Series+blockbuster estimation, 6-hour cadence, infinite budget,
    warm start on, fault reaction on. *)
val default_config : config

(** One replan record: when, why, the solve behind it, and how much of
    it the budget let through. *)
type replan = {
  t_s : float;
  trigger : string;  (** ["bootstrap"], ["periodic"] or an event kind *)
  report : Vod_placement.Solve.report;
  applied : int;
  deferred : int;
  moved_gb : float;
}

type result = {
  metrics : Vod_sim.Metrics.t;
  replans : replan list;  (** oldest first; head is the bootstrap *)
  windows : Vod_resil.Playout.window list;  (** [[]] without faults *)
  final : Vod_placement.Solution.t;  (** placement in force at the end *)
}

(** The replan boundary schedule [run] iterates: periodic ticks every
    [update_every_s] from the end of the bootstrap week to the horizon,
    merged with the fault timeline's event instants strictly inside
    that range when [react_to_faults]. Sorted ascending; exact-time
    collisions replan once (periodic label wins). Exposed for tests and
    planning tools. Raises [Invalid_argument] unless [update_every_s] is
    positive. *)
val boundaries :
  config ->
  ?resil:Vod_resil.Playout.config ->
  horizon_s:float ->
  unit ->
  (float * string) list

(** [run ~graph ~paths ~catalog ~trace ~problem ?resil ?record_from
    cfg] bootstraps a placement from the actual first week, then serves
    the trace through the unified loop into 5-minute link-load bins,
    replanning at every boundary: periodic ticks from day 7 on, plus the
    fault timeline's event instants when [react_to_faults] (exact-time
    collisions replan once). Each replan estimates demand from the week
    before the boundary. Raises
    [Invalid_argument] before any solve unless [update_every_s] is
    positive and [migration_budget_gb] non-negative (infinity is
    unrestricted), or if [resil] fails {!Vod_resil.Playout.validate}. *)
val run :
  graph:Vod_topology.Graph.t ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  trace:Vod_workload.Trace.t ->
  problem:Replan.problem ->
  ?resil:Vod_resil.Playout.config ->
  ?record_from:float ->
  config ->
  result

(** Total GB of copies migrated across all replans. *)
val total_moved_gb : result -> float

(** Total placement deltas applied across all replans. *)
val total_applied : result -> int

(** Total placement deltas deferred by the budget across all replans. *)
val total_deferred : result -> int
