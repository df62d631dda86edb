(** Per-video block oracles for the EPF engine: each video's subproblem is
    a priced uncapacitated facility location instance over the VHOs
    (paper Sec. V-C). *)

(** An integral block decision: where the video is stored and which VHO
    serves each demand site. The block's index is the video. *)
type choice = {
  open_vhos : int array;  (** VHOs storing the video, sorted *)
  serve : int array;
      (** serving VHO per client, in the order of the block's [clients] *)
}

type client = {
  vho : int;
  a : float;        (** aggregate requests a_j^m *)
  f : float array;  (** concurrency per peak window f_j^m(t) *)
}

type block = {
  video : int;
  size_gb : float;
  rate_mbps : float;
  clients : client array;
}

(** Sparse per-video demand assembly from an instance. *)
val build_blocks : Instance.t -> block array

(** The priced UFL instance of a block under given prices. *)
val ufl_of_block :
  Instance.t ->
  block ->
  obj_price:float ->
  row_price:float array ->
  Vod_facility.Ufl.t

(** Translate a UFL solution into an engine point (true objective
    contribution + coupling-row usage). The payload's [serve] is
    [sol.assign] itself, not a copy. *)
val point_of_solution :
  Instance.t -> block -> Vod_facility.Ufl.solution -> choice Vod_epf.Engine.point

(** Warm-start disk prices: the dual values implied by a greedy
    demand-density disk fill (per-GB marginal density per VHO). *)
val warm_disk_prices : Instance.t -> float array

(** Blocks plus their oracles for a whole instance, and the warm-start
    row prices. Each block's oracle runs greedy UFL for [optimize],
    local search for [optimize_strong] and dual ascent for
    [lower_bound]. [warm_start] (default true) seeds each block's initial
    point at the greedy-fill duals ({!warm_disk_prices}) on the disk
    rows and 0 on the link rows. The prices come back on the full row
    layout (all zero when [warm_start] is false). *)
val oracles :
  ?warm_start:bool ->
  Instance.t ->
  block array * choice Vod_epf.Engine.oracle array * float array
