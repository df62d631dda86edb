(** Trace analytics backing the paper's Sec. IV motivation figures:
    the busiest hour, working-set size, request-mix similarity, per-day
    popularity and the popularity law. *)

(** Start time (s) of the busiest 1-hour-aligned window. *)
val peak_hour_start_s : Trace.t -> float

(** [(distinct, gb)] videos requested at [vho] during [t0, t1) (Fig. 2). *)
val working_set :
  Trace.t -> Catalog.t -> vho:int -> t0:float -> t1:float -> int * float

(** Sparse request-count vector (video -> count) of a VHO over a window. *)
val request_vector :
  Trace.t -> vho:int -> t0:float -> t1:float -> (int, float) Hashtbl.t

(** Per-VHO cosine similarity between the window containing the peak
    instant and the previous window (Fig. 3). *)
val peak_interval_similarity : Trace.t -> window_s:float -> float array

(** Per-day request counts for one video (Fig. 4). *)
val daily_counts : Trace.t -> video:int -> int array

(** Least-squares Zipf exponent fitted on the head ([head_frac], default
    20 %) of a rank/frequency curve; validates generated traces against
    the configured popularity law. Raises [Invalid_argument] when fewer
    than two positive counts exist. *)
val fit_zipf_exponent : ?head_frac:float -> int array -> float
