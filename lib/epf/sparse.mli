(** Sparse row-usage vectors: the footprint of a block solution on the
    coupling constraints, and differences of footprints.

    A vector is two parallel arrays, [rows] strictly increasing and
    [vals] nonzero, 16 B per entry. The type is private so that every
    vector stays canonical (sorted and zero-free): hot loops read the two
    arrays directly, and structural equality is an exact same-vector
    test. *)

type t = private { rows : int array; vals : float array }

val empty : t

(** Number of stored entries. *)
val length : t -> int

(** Build from an unsorted association list, combining duplicates in list
    order and dropping zeros, including rows whose duplicates sum to
    zero. *)
val of_assoc : (int * float) list -> t

(** [of_entries rows vals] is {!of_assoc} of the list built by prepending
    the entries [(rows.(k), vals.(k))] in index order: a row's duplicates
    are summed from the last entry back. Takes ownership of both arrays,
    which it sorts in place and may return. Raises [Invalid_argument] if
    their lengths differ. *)
val of_entries : int array -> float array -> t

(** [axpby a x b y] = a*x + b*y, dropping entries of magnitude at most
    1e-15. *)
val axpby : float -> t -> float -> t -> t

(** [merge ~write a xr xv xo xn b yr yv yo yn rr rv ro] is the one merge
    behind {!axpby}, over slices: x is the [xn] entries of the parallel
    arrays [xr]/[xv] from [xo] on, y the [yn] entries of [yr]/[yv] from
    [yo] on, each sorted by row without duplicates. It computes a*x + b*y
    entry by entry in row order, drops entries of magnitude at most
    1e-15 and returns the count of the rest; when [write] it also stores
    them in [rr]/[rv] from [ro] on, which need room for [xn + yn]
    entries and must not overlap either input. *)
val merge :
  write:bool ->
  float -> int array -> float array -> int -> int ->
  float -> int array -> float array -> int -> int ->
  int array -> float array -> int -> int

(** [sub x y] = x - y. *)
val sub : t -> t -> t

(** [add_into acc a x]: acc += a*x (dense accumulator). *)
val add_into : float array -> float -> t -> unit

(** Dot product against a dense price vector. *)
val dot : float array -> t -> float

(** [iter f x] calls [f row value] on every entry in row order. *)
val iter : (int -> float -> unit) -> t -> unit

(** Row ids in the support (a fresh array). *)
val support : t -> int array
