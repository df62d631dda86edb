(** Feasibility probing and capacity sweeps (paper Fig. 11, Table IV,
    Fig. 13): binary searches over disk or link budgets for the smallest
    capacity at which the EPF engine finds an epsilon-feasible placement. *)

(** The engine's default parameters with 40 passes. *)
val default_probe_params : Vod_epf.Engine.params

(** Whether {!Vod_epf.Engine.feasible} finds an epsilon-feasible
    placement within [params.max_passes] FEAS passes (default
    {!default_probe_params}). Its engine timers record under the
    [probe] phase. *)
val feasible : ?params:Vod_epf.Engine.params -> Instance.t -> bool

(** Generic monotone bisection; [None] if even [hi] is infeasible. *)
val binary_search_min :
  lo:float -> hi:float -> tol:float -> feasible_at:(float -> bool) -> float option

(** Minimum aggregate-disk multiple (library-size units) for a given
    uniform link capacity; [disk_of] maps the multiplier to per-VHO GB. *)
val min_disk_multiplier :
  ?params:Vod_epf.Engine.params ->
  ?lo:float ->
  ?hi:float ->
  ?tol:float ->
  graph:Vod_topology.Graph.t ->
  catalog:Vod_workload.Catalog.t ->
  demand:Vod_workload.Demand.t ->
  link_capacity_mbps:float ->
  disk_of:(float -> float array) ->
  unit ->
  float option

(** Minimum uniform link capacity (Mb/s) for a fixed disk vector. *)
val min_link_capacity :
  ?params:Vod_epf.Engine.params ->
  ?lo:float ->
  ?hi:float ->
  ?tol:float ->
  graph:Vod_topology.Graph.t ->
  catalog:Vod_workload.Catalog.t ->
  demand:Vod_workload.Demand.t ->
  disk_gb:float array ->
  unit ->
  float option
