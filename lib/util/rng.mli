(** Deterministic splittable pseudo-random number generator (splitmix64).

    All randomized components of the library (trace generation, pass
    shuffling, tie-breaking) draw from this generator so that every
    experiment is exactly reproducible from its integer seed. *)

type t

(** [create seed] returns a fresh generator initialized from [seed]. *)
val create : int -> t

(** [split t] advances [t] and returns a statistically independent
    generator; useful to give each subsystem its own stream. *)
val split : t -> t

(** [split_n t n] splits off [n] independent streams in index order —
    one per parallel task, so seeded runs are reproducible at any job
    count. Raises [Invalid_argument] on negative [n]. *)
val split_n : t -> int -> t array

(** Uniform float in [0, 1). *)
val float : t -> float

(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** Fair coin flip. *)
val bool : t -> bool

(** [exponential t ~rate] samples Exp(rate). *)
val exponential : t -> rate:float -> float

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)
val permutation : t -> int -> int array
