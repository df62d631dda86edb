(** A placement-MIP instance: the paper's Table I inputs plus the
    coupling-row layout shared with the EPF engine (disk rows first, then
    one row per (peak window, directed link)). *)

type t = {
  graph : Vod_topology.Graph.t;
  paths : Vod_topology.Paths.t;
  catalog : Vod_workload.Catalog.t;
  demand : Vod_workload.Demand.t;
  disk_gb : float array;
  link_capacity_mbps : float array;
  alpha_cost : float;
  beta_cost : float;
  placement_weight : float;
  origin : int;
}

(** Build and validate an instance; [alpha_cost] and [beta_cost] default
    to 1, [placement_weight] to 0, [origin] to the largest metro. Raises
    [Invalid_argument] on arity mismatches, nonpositive or non-finite
    capacities, a negative or non-finite [alpha_cost], [beta_cost] or
    [placement_weight] (the message names the field), or an [origin]
    that is not a VHO index, 0 to [n_vhos - 1]. *)
val create :
  ?alpha_cost:float ->
  ?beta_cost:float ->
  ?placement_weight:float ->
  ?origin:int ->
  graph:Vod_topology.Graph.t ->
  catalog:Vod_workload.Catalog.t ->
  demand:Vod_workload.Demand.t ->
  disk_gb:float array ->
  link_capacity_mbps:float array ->
  unit ->
  t

(** Number of VHOs |V|. *)
val n_vhos : t -> int

(** Number of directed links |L|. *)
val n_links : t -> int

(** Number of peak windows |T|. *)
val n_windows : t -> int

(** Transfer cost per GB from [src] to [dst] (Eq. 1: alpha*hops + beta). *)
val cost : t -> src:int -> dst:int -> float

(** Coupling-row index of a VHO's disk constraint. *)
val disk_row : t -> int -> int

(** Coupling-row index of a (window, directed link) bandwidth constraint. *)
val link_row : t -> window:int -> link:int -> int

(** Total number of coupling rows. *)
val n_rows : t -> int

(** Row capacities (b vector) in row-layout order. *)
val capacities : t -> float array

(** [uniform_disk ~total_gb n] splits an aggregate disk budget evenly. *)
val uniform_disk : total_gb:float -> int -> float array

(** Uniform per-link capacity vector. *)
val uniform_links : Vod_topology.Graph.t -> float -> float array
