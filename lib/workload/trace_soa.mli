(** Compact struct-of-arrays request store — the million-request form of
    {!Trace}. One boxed {!Trace.request} costs five words (40 bytes plus
    a boxed float); the columnar store costs 16 bytes per request flat:
    a float64 Bigarray of times and two int32 Bigarrays of VHO and video
    ids, all off the OCaml heap (no GC scanning, no per-request boxing).

    Ordering contract: rows are sorted by ascending [time] with the
    {e same} comparator and the same (unstable) [Array.sort] permutation
    {!Trace.create} applies, so [to_trace (of_trace t)] round-trips
    byte-for-byte and the SoA serving paths replay requests in exactly
    the order the array-backed engines do. *)

type t = {
  times : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  vhos : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
  videos : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
  n_vhos : int;
  days : int;
}

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

(** [of_columns ~n_vhos ~days ~times ~vhos ~videos] validates (VHO in
    range, time within the horizon, equal column lengths) and sorts the
    rows by time via an index permutation — the permutation [Array.sort]
    with [Float.compare] on times produces, i.e. exactly the order
    {!Trace.create} would give the same rows. The inputs are plain OCaml
    arrays (a staging window, not the store); they are not retained. *)
val of_columns :
  n_vhos:int ->
  days:int ->
  times:float array ->
  vhos:int array ->
  videos:int array ->
  t

(** Lossless conversions against the boxed representation.
    [to_trace (of_trace tr)] equals [tr] request-for-request. *)
val of_trace : Trace.t -> t

val to_trace : t -> Trace.t

(** Row range [lo, hi) with time in [[t0_s, t1_s)) — binary search over
    the sorted time column; [lo = hi] for an empty window. *)
val between : t -> t0_s:float -> t1_s:float -> int * int

(** [iter_windows t ~window ~f] cuts the full store into consecutive
    chunks of at most [window] rows and calls [f ~lo ~hi] on each, in
    order — the chunked-reader primitive: a consumer staging rows into
    boxed form never needs more than [window] of them live. [window]
    must be positive. No call for an empty store. *)
val iter_windows : t -> window:int -> f:(lo:int -> hi:int -> unit) -> unit

(** Boxed requests of rows [[lo, hi)) — the bounded staging bridge for
    array-based consumers (never materializes more than one window).
    Raises [Invalid_argument] if the range is out of bounds. *)
val window_requests : t -> lo:int -> hi:int -> Trace.request array

(** Per-video total request counts, as {!Trace.counts_per_video}. *)
val counts_per_video : t -> n_videos:int -> int array

(** Growable columnar builder used by the streaming CSV loader and the
    sharded generator: rows append into doubling Bigarray columns (still
    16 bytes per row, never boxed), and {!Builder.finish} validates and
    time-sorts exactly as {!of_columns}. *)
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

  (** Rows appended so far. *)
  val length : t -> int

  (** Validate, time-sort (the {!of_columns} permutation) and return the
      store. The builder must not be reused afterwards. *)
  val finish : t -> store
end
