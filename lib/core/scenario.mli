(** Ready-made experiment scenarios: topology + catalog + month-long trace
    wired together the way the paper's evaluation sets them up
    (Sec. VII-A). *)

type t = {
  graph : Vod_topology.Graph.t;
  paths : Vod_topology.Paths.t;
  catalog : Vod_workload.Catalog.t;
  trace : Vod_workload.Trace.t;
}

(** Build a scenario over an arbitrary graph. Defaults: 28 days, 5
    requests per video per day. The trace comes from
    [Vod_workload.Tracegen.generate] on the process's default domain
    pool; bit-identical at any job count. *)
val make :
  ?days:int ->
  ?requests_per_video_per_day:float ->
  ?seed:int ->
  graph:Vod_topology.Graph.t ->
  n_videos:int ->
  unit ->
  t

(** The catalog [make] builds for these days, seed and size. *)
val catalog : days:int -> seed:int -> n_videos:int -> Vod_workload.Catalog.t

(** A scenario around a given trace, e.g. one loaded from a file, with
    the graph's shortest paths computed. Passing [catalog]'s result
    pairs the trace with the catalog [make] would build; [make] itself
    is [catalog], a generated trace and [assemble]. *)
val assemble :
  graph:Vod_topology.Graph.t -> catalog:Vod_workload.Catalog.t ->
  Vod_workload.Trace.t -> t

(** The paper's default 55-VHO backbone scenario. *)
val backbone :
  ?days:int ->
  ?requests_per_video_per_day:float ->
  ?seed:int ->
  n_videos:int ->
  unit ->
  t

(** Total library size in GB. *)
val library_gb : t -> float

(** Uniform per-VHO disk with aggregate = [multiple] x library size. *)
val uniform_disk : t -> multiple:float -> float array

(** The paper's heterogeneous large/medium/small VHO split (Sec. VII-C)
    with 4:2:1 disk weights, aggregate = [multiple] x library size. *)
val hetero_disk : t -> multiple:float -> float array

(** Target VHO of the canned fault scenarios below: the largest metro. *)
val default_fault_vho : t -> int

(** One VHO fails at 40% of the trace horizon and recovers at 70%
    (the TON'16 single-failure analysis). Default target: the largest
    metro. *)
val single_vho_outage : ?vho:int -> t -> Vod_resil.Event.schedule

(** Correlated site failure: the target VHO, its lowest-id neighbor and
    both directed links between them fail together over the same window. *)
val correlated_outage : ?vho:int -> t -> Vod_resil.Event.schedule

(** A threefold demand surge at the target VHO for a quarter day
    starting at 40% of the horizon. *)
val flash_crowd : ?vho:int -> t -> Vod_resil.Event.schedule

(** The paper's demand windows (Sec. VI-B): |T| = 2 peak windows of one
    hour per placement week. *)
val n_windows : int

val window_s : float

(** Demand inputs for the week starting at [day0], from actual requests
    in {!n_windows} peak windows of {!window_s} seconds. *)
val demand_of_week : t -> day0:int -> Vod_workload.Demand.t
