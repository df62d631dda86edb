(** One block's convex combination of oracle points, stored column-wise:
    the EPF engine's per-block state ({!Engine}).

    A column is one oracle point (objective, coupling-row usage, payload)
    with its weight. The objectives, weights and payloads are three
    arrays and the usages lie end to end in one rows/vals arena, column
    [q]'s usage being the entries from [off.(q)] to [off.(q + 1)]
    (exclusive). Beside the columns the block keeps its aggregate usage,
    sum_q w_q usage_q as of the last {!step} or {!recompute}. Updates
    write these arrays in place through {!Sparse.merge}; an array is
    reallocated only to grow.

    The columns keep the order of a list whose head is the newest point,
    and every sum runs in that order, which makes the arithmetic
    bit-identical to a [(point, weight) list] combination:
    - {!step} puts the new column first, then the old ones in order;
    - it keeps the columns of weight above 2e-3; when more than 20
      remain, a stable sort by decreasing weight sets their order and the
      first 20 stay; the kept weights are summed in that order and
      divided by the sum; when no weight passes, every column stays with
      its unnormalized weight;
    - {!recompute} folds the usages and objectives in column order;
    - {!heaviest} is the heaviest column, the first on ties. *)

(** A block point: what an oracle returns. *)
type 'a point = {
  obj : float;  (** objective contribution c^k z^k *)
  usage : Sparse.t;  (** coupling-row footprint A^k z^k *)
  data : 'a;  (** opaque payload (e.g. a UFL solution) *)
}

(** The fields are readable so that the engine's hot loops index the
    arrays directly; only this module writes them. Slots at and beyond
    [n] (and arena entries beyond [off.(n)]) are spare capacity. *)
type 'a t = private {
  mutable n : int;  (** live columns, at least 1 *)
  mutable obj : float array;  (** objective per column *)
  mutable weight : float array;  (** weight per column *)
  mutable data : 'a array;  (** payload per column *)
  mutable off : int array;  (** arena offset per column, and the end *)
  mutable rows : int array;  (** usage arena: row ids *)
  mutable vals : float array;  (** usage arena: values *)
  mutable agg_n : int;  (** aggregate usage entries *)
  mutable agg_rows : int array;  (** aggregate usage: row ids *)
  mutable agg_vals : float array;  (** aggregate usage: values *)
}

(** Scratch buffers for the updates: one per solve, used by one domain
    at a time. *)
type 'a work

(** Fresh, empty scratch buffers. *)
val work : unit -> 'a work

(** The columns of a [(point, weight)] list, in list order, the usages
    copied; the aggregate is empty until the first {!recompute}. The
    engine starts every block from the one-element list of [(pt, 1.0)].
    Raises [Invalid_argument] on the empty list. *)
val of_list : ('a point * float) list -> 'a t

(** Number of live columns. *)
val length : 'a t -> int

(** Column [q]'s weight. *)
val weight : 'a t -> int -> float

(** Column [q]'s payload. *)
val data : 'a t -> int -> 'a

(** Column [q] as a point, its usage a fresh vector. *)
val point : 'a t -> int -> 'a point

(** The column of largest weight, the first on ties. *)
val heaviest : 'a t -> int

(** [sub_block w c x] writes x - (the aggregate), merged by
    {!Sparse.merge}, to the first entries of [delta_rows w] and
    [delta_vals w] and returns their count. Only the next [sub_block] or
    [sub_column] on [w] overwrites them. *)
val sub_block : 'a work -> 'a t -> Sparse.t -> int

(** [sub_column w c q] does the same for column [q]'s usage. *)
val sub_column : 'a work -> 'a t -> int -> int

(** The delta buffers of {!sub_block} and {!sub_column}: row ids and
    values. *)
val delta_rows : 'a work -> int array

val delta_vals : 'a work -> float array

(** [step w c ~tau pt] moves the combination a step [tau] toward [pt]:
    [pt] becomes the first column with weight [tau], the old weights are
    scaled by [1 - tau], and the result is pruned as described above.
    The aggregate becomes [(1 - tau) agg + tau pt.usage]. Returns the
    number of columns pruned (the old count plus one, minus the new
    count). *)
val step : 'a work -> 'a t -> tau:float -> 'a point -> int

(** Recompute the aggregate exactly from the columns and return the
    block objective sum_q w_q obj_q, both folded in column order from
    zero. *)
val recompute : 'a work -> 'a t -> float

(** [keep c q] leaves column [q] alone with weight 1, and the aggregate
    equal to its usage. *)
val keep : 'a t -> int -> unit

(** [reset c pt] replaces every column by [pt] with weight 1, and the
    aggregate by [pt.usage]. *)
val reset : 'a t -> 'a point -> unit
