(** Constant-time sampling from a fixed discrete distribution
    (Walker's alias method). *)

type t

(** [create weights] preprocesses the (unnormalized, finite,
    nonnegative) weight vector in O(n). Raises [Invalid_argument] on an
    empty vector, a negative or non-finite (NaN/infinite) weight, or an
    all-zero vector. *)
val create : float array -> t

(** [draw t rng] samples an index with probability proportional to its
    weight, in O(1). *)
val draw : t -> Rng.t -> int
