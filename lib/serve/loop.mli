(** The serving engine: one event loop over the rows of the columnar
    request store ({!Vod_workload.Trace}), in a direct fixed-path
    configuration or a fault-injecting one. The placement source is the
    mutable fleet ({!set_fleet} swaps placements mid-run); the router and
    capacity model plug in through an optional [Vod_resil.Playout.config].
    Both configurations reproduce the recorded outputs of the engines
    they replaced byte-for-byte (test/golden/); telemetry goes to the
    [serve/*] keys (METRICS.md). *)

type t

(** [create ~graph ~paths ~catalog ~fleet ?resil ()] builds a loop over
    the fixed routing. Without [resil] the loop runs the direct
    configuration; with it, the fault timeline, capacity tracker and
    failover router are instantiated from the config. Raises
    [Invalid_argument] if the schedule references ids outside the
    topology. *)
val create :
  graph:Vod_topology.Graph.t ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  fleet:Vod_cache.Fleet.t ->
  ?resil:Vod_resil.Playout.config ->
  unit ->
  t

(** The fleet currently being driven. *)
val fleet : t -> Vod_cache.Fleet.t

(** Swap the placement the loop serves from — the placement-source seam
    the re-placement daemon uses after each placement update. *)
val set_fleet : t -> Vod_cache.Fleet.t -> unit

(** Whether a VHO is currently up ([true] always in the direct
    configuration) — the fault-state read the daemon's replanner uses
    to steer demand away from dark VHOs. *)
val vho_up : t -> int -> bool

(** Advance the fault timeline (and expire stream reservations) to
    [now] without playing a request, applying any pending events — the
    daemon's replan boundaries use this so {!vho_up} reflects the
    boundary instant. No-op in the direct configuration. *)
val advance : t -> now:float -> unit

(** Play rows [[lo, hi)) of a time-sorted store, accumulating into the
    metrics; iterated by index with no boxed request and no per-row
    closure in either configuration. Raises [Invalid_argument] on a bad
    range or a store whose VHO bound exceeds the metrics arrays. *)
val play_soa :
  t -> Vod_sim.Metrics.t -> Vod_workload.Trace.t -> lo:int -> hi:int -> unit

(** Drain the remaining fault schedule up to the metrics horizon, close
    saturation intervals and the final window, publish end-of-run
    gauges. Idempotent; a no-op in the direct configuration. *)
val finish : t -> Vod_sim.Metrics.t -> unit

(** Event windows closed so far, oldest first (complete after
    {!finish}); [[]] in the direct configuration. *)
val windows : t -> Vod_resil.Playout.window list

(** One-shot playout of a full store: metrics over the store's whole
    horizon with per-VHO counters, 5-minute bins by default, and
    {!finish} settled even when playing raises. *)
val run_soa :
  graph:Vod_topology.Graph.t ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  fleet:Vod_cache.Fleet.t ->
  store:Vod_workload.Trace.t ->
  ?bin_s:float ->
  ?record_from:float ->
  ?resil:Vod_resil.Playout.config ->
  unit ->
  Vod_sim.Metrics.t * Vod_resil.Playout.window list
