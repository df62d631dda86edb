(** The MIP's demand-side inputs for one placement period: sparse aggregate
    request counts [a_j^m] and peak-window concurrency [f_j^m(t)]
    (paper Table I, Sec. VI-B). *)

type t = {
  n_videos : int;
  n_vhos : int;
  a : (int * float) array array;
      (** [a.(video)] = sorted [(vho, request count)] pairs *)
  f : (int * float) array array array;
      (** [f.(w).(video)] = sorted [(vho, concurrent streams)] pairs for
          peak window [w] *)
  windows : (float * float) array;  (** the |T| peak windows, [t0, t1) *)
  total_requests : float;
}

(** [of_soa catalog ~n_vhos ~day0 ~days ~n_windows ~window_s trace ~lo
    ~hi] builds the demand model of the [days]-long period starting at
    day [day0] from rows [[lo, hi)] of a trace: times are rebased to
    [day0] and rows falling outside the period are dropped. The peak
    windows are the [n_windows] busiest [window_s]-aligned windows of
    the period on distinct days (the paper's |T| = 2 one-hour windows,
    typically Friday and Saturday evenings; Table V sweeps [window_s]
    from 1 s to 1 day). Raises [Invalid_argument] on a bad range, a
    nonpositive window or a trace whose VHO bound exceeds [n_vhos]. *)
val of_soa :
  Catalog.t ->
  n_vhos:int ->
  day0:int ->
  days:int ->
  n_windows:int ->
  window_s:float ->
  Trace.t ->
  lo:int ->
  hi:int ->
  t

(** [with_windows catalog d week windows] is [d] with its peak windows
    replaced by [windows] and [f] recounted for them over every row of
    [week], a trace whose time 0 is the start of [d]'s period (the
    iterative refinement of Sec. VI-B). *)
val with_windows : Catalog.t -> t -> Trace.t -> (float * float) array -> t

(** Total request count of a video across VHOs. *)
val video_requests : t -> int -> float

(** Video ids sorted by decreasing total demand. *)
val rank_by_demand : t -> int array
