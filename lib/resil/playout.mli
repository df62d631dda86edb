(** Resilience configuration of the serving loop ([Vod_serve.Loop]): a
    fault timeline ({!Event}), capacity-aware failover routing
    ({!Router}) and degradation accounting
    ([Vod_sim.Metrics.degradation]). With an empty schedule and
    infinite link capacity the faulted loop reproduces the direct one's
    metrics byte-for-byte. *)

type config = {
  schedule : Event.schedule;
  link_capacity_mbps : float;
      (** uniform per-directed-link budget; [infinity] disables tracking *)
  origin : int option;  (** optional last-resort full-library VHO *)
}

(** Build a config; defaults: empty schedule, infinite capacity, no
    origin. *)
val config :
  ?schedule:Event.schedule ->
  ?link_capacity_mbps:float ->
  ?origin:int ->
  unit ->
  config

(** Raises [Invalid_argument] if the schedule names a VHO or link
    outside the topology ({!Event.validate}) or the origin is not a VHO
    id from 0 to [n_vhos - 1]. *)
val validate : config -> n_vhos:int -> n_links:int -> unit

(** Per-event-window serving deltas: one window per applied event plus
    the leading fault-free window and the closing ["end"] window. *)
type window = {
  t0_s : float;
  t1_s : float;
  trigger : string;
  requests : int;
  rejections : int;
  failovers : int;
}
