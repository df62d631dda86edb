(** End-to-end placement solve: block construction, decomposition (or
    exact LP), rounding, extraction, by one of three fixed solvers:

    - ["epf"] (the default) — the exponential-potential-function engine
      ({!Vod_epf.Engine}), the paper's solver;
    - ["benders"] — the stabilized Dantzig-Wolfe / Benders cutting-plane
      master ({!Vod_decomp.Master}), over the same per-video UFL
      oracles;
    - ["simplex"] — the exact dense-LP reference ({!Lp_check} +
      {!Vod_lp.Simplex}), viable only on small instances.

    The solve is deterministic: the report is a pure function of
    [(inst, solver, params, incumbent)] at any [Engine.params.jobs]
    count. Wall-clock timing is deliberately absent from {!report} —
    phase timings are recorded side-band through {!Vod_obs.Obs.phase}
    (keys [phase/solve/..._seconds], collected only when a [--metrics]
    registry is installed); callers that want an end-to-end duration
    time the {!solve} call themselves. *)

type report = {
  solution : Solution.t;  (** the rounded integral placement *)
  lp_objective : float;  (** fractional objective before rounding *)
  lp_violation : float;  (** max relative violation before rounding *)
  passes : int;  (** main-loop passes run by the solver *)
  history : (float * float * float) array;
      (** per-pass (objective, lower bound, violation) fractional convergence
          trace; the simplex reference records (LP optimum, LP optimum, 0) *)
}

(** Every solver name {!solve} accepts, the default ["epf"] first. *)
val solvers : string list

val solve :
  ?solver:string ->
  ?params:Vod_epf.Engine.params ->
  ?incumbent:Solution.t ->
  Instance.t ->
  report
(** Solve an instance with the named solver (default ["epf"]) and the
    given engine parameters (default [Vod_epf.Engine.default_params];
    Benders reads only [max_passes] and [jobs], the simplex reference
    none). [incumbent], when given, warm-starts EPF and Benders from
    that placement ({!Solution.engine_point} per block) instead of the
    single-facility initial sweep — the entry the online re-placement
    daemon uses to re-solve from where the fleet already is; the
    simplex reference ignores it. Raises [Failure] naming every solver
    when [solver] is unknown, and [Failure] when the simplex reference
    finds the LP infeasible or unbounded. Logs a one-line summary at
    info level on the [vod.solve] source. *)
