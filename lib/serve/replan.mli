(** Re-placement building blocks of the online daemon ({!Daemon}):
    demand assembly for a period starting at a float time, the periodic
    MIP re-solve, and the migration-budget restriction. The batch
    pipeline ([Vod_core.Pipeline]) runs its MIP scheme on the daemon, so
    these are its demand assembly and solve too. *)

(** The static re-placement problem: topology, catalog, capacities and
    engine parameters that stay fixed across replans. *)
type problem = {
  graph : Vod_topology.Graph.t;
  catalog : Vod_workload.Catalog.t;
  disk_gb : float array;  (** raw per-VHO disk *)
  link_capacity_mbps : float;  (** uniform per-link budget *)
  cache_frac : float;  (** complementary-LRU share of each disk *)
  n_windows : int;
  window_s : float;
  engine : Vod_epf.Engine.params;
  solver : string;
      (** solver name passed to {!Vod_placement.Solve.solve}, one of
          {!Vod_placement.Solve.solvers} (["epf"] for the historical
          behavior) *)
}

(** Disk left to a VHO the fault state reports dark (strictly positive
    because the engine requires positive row capacities). *)
val down_disk_gb : float

(** [demand pb week] builds the MIP demand model of the seven-day
    placement period that starts at time 0 of [week]: a predicted week
    from {!Vod_workload.Estimator.predict_at}, or a trace whose first
    week is the period (rows after it are ignored). *)
val demand : problem -> Vod_workload.Trace.t -> Vod_workload.Demand.t

(** One placement re-solve. [incumbent] warm-starts the EPF engine from
    the running placement ({!Vod_placement.Solve.solve}'s [incumbent]);
    [down_vhos.(i) = true] shrinks VHO [i]'s pinned disk to
    {!down_disk_gb} so the solver plans around the outage. *)
val solve :
  ?incumbent:Vod_placement.Solution.t ->
  ?down_vhos:bool array ->
  problem ->
  Vod_workload.Demand.t ->
  Vod_placement.Solve.report

(** An incremental placement delta: how much of a target placement was
    adopted under a migration budget. *)
type delta = {
  solution : Vod_placement.Solution.t;
  applied : int;  (** videos whose copy set changed and were adopted *)
  deferred : int;  (** videos kept on the incumbent placement *)
  moved_gb : float;  (** bytes of new copies actually scheduled *)
}

(** [restrict ~catalog ~incumbent ~target ~priority ~budget_gb] adopts
    target copy sets per video (atomically — a video either moves fully
    or stays put), greedily by predicted demand per moved GB
    ([priority.(video)] over the video's transfer bytes, ties broken on
    video id), skipping videos that exceed the remaining budget.
    Transfer-free changes always adopt. When everything fits (e.g.
    [budget_gb = infinity]) the [target] solution itself is returned.
    Raises [Invalid_argument] on a catalog size mismatch. *)
val restrict :
  catalog:Vod_workload.Catalog.t ->
  incumbent:Vod_placement.Solution.t ->
  target:Vod_placement.Solution.t ->
  priority:float array ->
  budget_gb:float ->
  delta
