(** Synthetic video catalog generator.

    Composition follows the paper's trace description (music videos,
    TV-series episodes with weekly releases, movies, 1-3 blockbusters per
    week); popularity follows the Zipf-with-exponential-cutoff shape of the
    YouTube distribution the paper uses for its synthetic traces. *)

type t = {
  videos : Video.t array;
  n_series : int;
  trace_days : int;
}

(** A catalog of [n] videos for a [days]-day trace. The composition and
    popularity law are fixed at the paper's synthetic workload: Zipf
    exponent 0.8 with a cutoff at 35% of the catalog, 25% series
    episodes (12 per series), 30% clips, the rest movies, and 2
    blockbusters per trace week. *)
type params = { n : int; days : int; seed : int }

(** The record [{ n; days; seed }]; bench/perf builds its catalogs
    through it. *)
val default_params : n:int -> days:int -> seed:int -> params

(** Number of videos. *)
val n_videos : t -> int

(** Lookup by id. *)
val video : t -> int -> Video.t

(** Total storage footprint of one copy of every video, in GB. *)
val total_size_gb : t -> float

(** [zipf_cutoff_weight ~exponent ~cutoff_frac ~n r] is the popularity
    weight of rank [r] (0-based) in a catalog of [n]. *)
val zipf_cutoff_weight :
  exponent:float -> cutoff_frac:float -> n:int -> int -> float

(** Deterministic catalog generation. Raises [Invalid_argument] on an
    empty catalog. *)
val generate : params -> t

(** Episodes of a series, ordered by episode number. *)
val series_episodes : t -> int -> Video.t list

(** The episode preceding [v] in its series, if any. *)
val previous_episode : t -> Video.t -> Video.t option
