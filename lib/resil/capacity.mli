(** Per-directed-link residual-bandwidth tracking at stream granularity:
    admitted streams reserve their bitrate on every path link until their
    end time; expiries release it as the playout clock advances. When no
    link has finite capacity the tracker is a no-op fast path. *)

type t

(** [create ~capacity_mbps] with one capacity per directed link
    ([infinity] = unbounded). A link counts as saturated while its load
    is at or above 95% of its capacity. Raises [Invalid_argument] on
    non-positive capacities. *)
val create : capacity_mbps:float array -> t

(** True when no link has a finite capacity (every admission succeeds). *)
val unbounded : t -> bool

(** Release every reservation ending at or before [now]. Call before
    [fits]/[reserve] at each playout step. *)
val expire : t -> now:float -> unit

(** Whether a stream of [rate_mbps] fits on every link of [links]. *)
val fits : t -> links:int array -> rate_mbps:float -> bool

(** Reserve [rate_mbps] on every link of [links] until [until_s]. *)
val reserve :
  t -> links:int array -> rate_mbps:float -> until_s:float -> now:float -> unit

(** Close any still-open saturation intervals at playout end. *)
val finish : t -> now:float -> unit

(** Total saturated link-seconds so far. *)
val saturated_seconds : t -> float

(** Current reserved load on a link (Mb/s). *)
val load : t -> int -> float
