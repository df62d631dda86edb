(** Request traces: the one request representation, shared by the
    simulator, the demand estimator and the trace analytics. Times are
    absolute seconds from trace start.

    The store is columnar: a float64 Bigarray of times and two int32
    Bigarrays of VHO and video ids, 16 bytes per request, all off the
    OCaml heap (no GC scanning, no per-request boxing), which is what
    carries million-video, multi-million-request traces.

    Ordering contract: rows are sorted by ascending time. Every
    constructor sorts through an index permutation computed by
    [Array.sort] with [Float.compare] on the times, so a given sequence
    of rows always lands in the same order (tied times included). *)

type t = {
  times : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  vhos : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
  videos : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
  n_vhos : int;
  days : int;
}

val seconds_per_day : float

(** Day index containing an absolute time. *)
val day_of_time : float -> int

(** Number of requests (rows). *)
val length : t -> int

(** Row accessors; [time t i] is the request time in seconds from trace
    start. Raise [Invalid_argument] on an out-of-range row (Bigarray
    bounds check). *)
val time : t -> int -> float

val vho : t -> int -> int
val video : t -> int -> int

(** Resident size of the three columns in bytes (16 bytes per row) —
    what the [mem/trace_store_bytes] gauge reports. *)
val resident_bytes : t -> int

(** [row_error ~n_vhos ~days ~time_s ~vho] says why a row does not fit
    an [n_vhos]-VHO, [days]-day trace, or [None] if it does: the VHO
    must lie in [\[0, n_vhos)] and the time in [\[0, days × 86400)],
    which also rejects a NaN time. The one row validator: every
    constructor applies it, and {!Trace_io.load_csv} applies it per
    line. *)
val row_error : n_vhos:int -> days:int -> time_s:float -> vho:int -> string option

(** [of_columns ~n_vhos ~days ~times ~vhos ~videos] validates every row
    ({!row_error}, equal column lengths) and sorts the rows by time. The
    inputs are plain OCaml arrays; they are not retained. Raises
    [Invalid_argument] on a bad row. *)
val of_columns :
  n_vhos:int ->
  days:int ->
  times:float array ->
  vhos:int array ->
  videos:int array ->
  t

(** Row range [lo, hi) with time in [[t0_s, t1_s)) — binary search over
    the sorted time column; [lo = hi] for an empty window. *)
val between : t -> t0_s:float -> t1_s:float -> int * int

(** Rows [[lo, hi)] as a store of their own, with the same times, VHO
    bound and horizon. The columns are shared, not copied. Raises
    [Invalid_argument] if the range is out of bounds. *)
val sub : t -> lo:int -> hi:int -> t

(** [iter_windows t ~window ~f] cuts the full store into consecutive
    chunks of at most [window] rows and calls [f ~lo ~hi] on each, in
    order. [window] must be positive. No call for an empty store. *)
val iter_windows : t -> window:int -> f:(lo:int -> hi:int -> unit) -> unit

(** Per-video total request counts over the whole trace. *)
val counts_per_video : t -> n_videos:int -> int array

(** Growable columnar builder used by the generator, the CSV loader and
    the demand estimator: rows append into doubling Bigarray columns
    (still 16 bytes per row, never boxed), and {!Builder.finish}
    validates and time-sorts exactly as {!of_columns}. *)
module Builder : sig
  type store = t

  type t

  (** [create ?capacity ~n_vhos ~days ()] — [capacity] is the initial
      column allocation in rows (grows by doubling). *)
  val create : ?capacity:int -> n_vhos:int -> days:int -> unit -> t

  (** Append one row (unvalidated until {!finish}). *)
  val add : t -> time_s:float -> vho:int -> video:int -> unit

  (** Append [n] rows read from plain-array staging columns. *)
  val add_columns :
    t -> times:float array -> vhos:int array -> videos:int array -> n:int -> unit

  (** Validate, time-sort (the {!of_columns} permutation) and return the
      store. Raises [Invalid_argument] on a bad row. The builder must not
      be reused afterwards. *)
  val finish : t -> store
end
