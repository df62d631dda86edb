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
    [Vod_workload.Tracegen.generate]; [jobs] shards per-day generation
    over a domain pool (0 = process default); bit-identical at any job
    count. *)
val make :
  ?days:int ->
  ?requests_per_video_per_day:float ->
  ?seed:int ->
  ?jobs:int ->
  graph:Vod_topology.Graph.t ->
  n_videos:int ->
  unit ->
  t

(** The paper's default 55-VHO backbone scenario. *)
val backbone :
  ?days:int ->
  ?requests_per_video_per_day:float ->
  ?seed:int ->
  ?jobs:int ->
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

(** A demand surge ([factor], default 3.0) at the target VHO for a
    quarter day starting at 40% of the horizon. *)
val flash_crowd : ?vho:int -> ?factor:float -> t -> Vod_resil.Event.schedule

(** Demand inputs for the week starting at [day0], from actual requests
    (|T| = 2 one-hour peak windows by default). *)
val demand_of_week :
  t -> day0:int -> ?n_windows:int -> ?window_s:float -> unit -> Vod_workload.Demand.t
