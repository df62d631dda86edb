(** An integral placement (the rounded MIP solution): which VHOs store each
    video, how requests are routed, and the achieved objective / Lagrangian
    bound / violation statistics. *)

type t = {
  n_vhos : int;
  n_videos : int;
  stored : int array array;
  routes : (int, int) Hashtbl.t array;
  objective : float;
  lower_bound : float;
  max_violation : float;
  passes : int;
}

(** [of_outcome inst blocks outcome] extracts the placement from a
    rounded engine outcome over [blocks] (block [k] is video [k]), taking
    each block's heaviest column. Raises [Invalid_argument] if the block
    and outcome counts differ or a block has no copy (cannot happen for
    oracle points). *)
val of_outcome :
  Instance.t -> Blocks.block array -> Blocks.choice Vod_epf.Engine.outcome -> t

(** Whether [vho] stores [video]. *)
val stores : t -> video:int -> vho:int -> bool

(** Serving VHO for a request: local if stored, else the MIP route, else
    the nearest replica. *)
val server : t -> Vod_topology.Paths.t -> video:int -> vho:int -> int

(** Number of replicas of a video. *)
val copies : t -> int -> int

(** Pinned disk usage per VHO in GB. *)
val disk_used : t -> Vod_workload.Catalog.t -> float array

(** Relative optimality gap (objective - lower bound) / lower bound. *)
val gap : t -> float

(** [(transfers, gb)] needed to migrate from [old_sol] to [new_sol]
    (Sec. VII-H placement-update cost). *)
val migration :
  old_sol:t -> new_sol:t -> Vod_workload.Catalog.t -> int * float

(** [engine_point inst b ~incumbent] rebuilds an EPF starting point for
    block [b] of [inst] from an existing placement: the video's copies
    in [incumbent] become the open set, and each demand site is served
    from {!server}'s choice. Used to warm-start a re-solve from the
    incumbent (see {!Solve.solve}'s [incumbent]). Raises
    [Invalid_argument] if [incumbent] covers a different VHO count or a
    smaller catalog, or stores no copy of the video. *)
val engine_point :
  Instance.t -> Blocks.block -> incumbent:t -> Blocks.choice Vod_epf.Engine.point
