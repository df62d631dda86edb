(** Synthetic request-trace generator reproducing the properties the
    paper's evaluation depends on: population-proportional per-VHO volume,
    Zipf-with-cutoff popularity, Fri/Sat-heavy weekly and prime-time-peaked
    diurnal intensity, freshness spikes for weekly series episodes and
    blockbusters, and regional taste variation. *)

type params = {
  catalog : Catalog.t;
  populations : float array;
  mean_daily_requests : float;
  taste_spread : float;
  seed : int;
}

(** Defaults with [taste_spread = 0.9]. *)
val default_params :
  catalog:Catalog.t ->
  populations:float array ->
  mean_daily_requests:float ->
  seed:int ->
  params

(** Poisson sampler (exact for small lambda, normal approximation above 30);
    exposed for tests. *)
val poisson : Vod_util.Rng.t -> float -> int

(** Generate the full trace, deterministically from [params.seed].
    Days are generated in parallel on a [jobs]-worker domain pool
    ([0] = the process default, see {!Vod_util.Pool.default_jobs}), a
    week of days per pool batch: each day draws from its own split RNG
    stream into flat staging columns that append to the store in day
    order, so no boxed request is ever materialized and the result is
    bit-identical at any job count. Sets the [mem/trace_store_bytes]
    gauge when metrics are on. *)
val generate : ?jobs:int -> params -> Trace.t

(** {!generate} under its former name, kept only because bench/perf
    still calls it by that name; it goes at the next change to
    bench/perf. *)
val generate_soa : ?jobs:int -> params -> Trace.t
