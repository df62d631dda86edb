(** Playout metrics: per-(directed link, time bin) average load in Mb/s
    plus serving counters — the raw material of the paper's Figs. 5/6/9/10
    and Tables II/V/VI. *)

(** Degradation accounting under faults (the faulted serving loop): requests
    lost to outages, dead links or saturated capacity, plus failover
    overhead. All fields stay zero for a fault-free playout. *)
type degradation = {
  mutable rejections : int;
  mutable rejected_vho_down : int;
  mutable rejected_no_replica : int;
  mutable rejected_unreachable : int;
  mutable rejected_no_capacity : int;
  mutable failovers : int;
  mutable failover_extra_hops : int;
  mutable origin_served : int;
  mutable link_saturated_s : float;
}

type t = {
  bin_s : float;
  n_bins : int;
  n_links : int;
  record_from : float;
  link_load : float array array;
  per_vho_requests : int array;
  per_vho_local : int array;
  mutable requests : int;
  mutable local_served : int;
  mutable cache_hits : int;
  mutable remote_served : int;
  mutable not_cachable : int;
  mutable total_gb_hops : float;
  mutable total_gb_remote : float;
  deg : degradation;
}

(** [create ~n_links ~horizon_s ()] with 5-minute bins by default; activity
    before [record_from] (warm-up) is not recorded. Pass [n_vhos] to also
    collect per-VHO serving counters. *)
val create :
  n_links:int ->
  ?n_vhos:int ->
  horizon_s:float ->
  ?bin_s:float ->
  ?record_from:float ->
  unit ->
  t

(** Whether a time falls inside the recording window. *)
val in_record_window : t -> float -> bool

(** Validate a store's VHO bound against the per-VHO counter arrays: every
    row of a {!Vod_workload.Trace.t} was bounds-checked against its
    own [n_vhos] at construction, so the check is O(1) and covers every
    row. Raises [Invalid_argument] naming both bounds; a no-op when the
    metrics were created without [n_vhos]. *)
val validate_store : t -> Vod_workload.Trace.t -> unit

(** Spread a stream of [rate_mbps] over [t0, t1) into a link's bins
    (overlap-weighted). *)
val add_stream : t -> link:int -> rate_mbps:float -> t0:float -> t1:float -> unit

(** Per-bin max over links (Fig. 5). *)
val peak_series : t -> float array

(** Per-bin sum over links (Fig. 6). *)
val aggregate_series : t -> float array

(** Peak of [peak_series]. *)
val max_link_mbps : t -> float

(** Peak of [aggregate_series]. *)
val max_aggregate_mbps : t -> float

(** Fraction of recorded requests served locally. *)
val local_fraction : t -> float

(** Alias of [local_fraction] (the paper's cache hit rate). *)
val hit_rate : t -> float

(** Fraction of recorded requests rejected outright; 0 for fault-free
    playouts. *)
val rejection_rate : t -> float

(** Per-VHO local-serving fraction; empty unless created with [n_vhos]. *)
val per_vho_local_fraction : t -> float array
