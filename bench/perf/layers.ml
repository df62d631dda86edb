(* Folds the Obs keys the library already records (the phase/solve
   timers and the epf, decomp, cache, serve, resil and pool counters)
   into the benchmark's per-layer metric names. One registry covers one
   traced iteration of a workload's timed section. *)

module Obs = Vod_obs.Obs

let counter r k = match Obs.read r k with Some (Obs.Counter n) -> float_of_int n | _ -> 0.0
let gauge r k = match Obs.read r k with Some (Obs.Gauge g) -> g | _ -> 0.0

let hist r k =
  match Obs.read r k with
  | Some (Obs.Histogram h) -> (float_of_int h.count, h.sum, h.max)
  | _ -> (0.0, 0.0, 0.0)

let series_sum r k =
  match Obs.read r k with
  | Some (Obs.Series a) -> Array.fold_left ( +. ) 0.0 a
  | _ -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Sum of every key [prefix ^ _ ^ suffix], e.g. the cache counters of all
   policies or the busy time of all pool slots. *)
let sum_keys r ~prefix ~suffix value =
  List.fold_left
    (fun acc k ->
      if String.starts_with ~prefix k && String.ends_with ~suffix k then acc +. value r k
      else acc)
    0.0 (Obs.names r)

let pool_busy_s r =
  sum_keys r ~prefix:"pool/sched/domain" ~suffix:"_busy_seconds" (fun r k ->
      let _, sum, _ = hist r k in
      sum)

let of_registry r ~jobs ~wall_s =
  let phase k =
    let _, sum, _ = hist r ("phase/solve/" ^ k ^ "_seconds") in
    sum
  in
  let solve_calls, solve_s, solve_max_s = hist r "phase/solve_seconds" in
  let cache k = sum_keys r ~prefix:"cache/" ~suffix:("/" ^ k) counter in
  let hits = cache "hits" and misses = cache "misses" in
  let snaps = counter r "epf/round/snaps" in
  let fresh = counter r "epf/round/fresh_candidates" in
  let serious = counter r "decomp/stab/serious_steps" in
  let null = counter r "decomp/stab/null_steps" in
  let applied = counter r "serve/daemon/deltas_applied" in
  let deferred = counter r "serve/daemon/deltas_deferred" in
  [
    ("placement.blocks_s", phase "blocks");
    ("placement.extract_s", phase "extract");
    ("placement.solve_calls", solve_calls);
    ("placement.solve_mean_s", ratio solve_s solve_calls);
    ("placement.solve_max_s", solve_max_s);
    ("epf.init_s", phase "engine/init");
    ("epf.pass_s", phase "engine/pass");
    ("epf.passes", counter r "epf/passes");
    ("epf.lb_s", phase "engine/pass/lb");
    ("epf.round_s", phase "engine/round");
    ("epf.polish_s", phase "engine/polish");
    ("epf.final_lb_s", phase "engine/final_lb");
    ("epf.pruned_points", counter r "epf/combo/pruned_points");
    ("epf.round.snaps", snaps);
    ("epf.round.fresh_candidates", fresh);
    ("epf.round.snap_ratio", ratio snaps fresh);
    ("decomp.passes", counter r "decomp/passes");
    ("decomp.init_s", phase "master/init");
    ("decomp.cuts_s", phase "master/cuts");
    ("decomp.lb_s", phase "master/lb");
    ("decomp.round_s", phase "master/round");
    ("decomp.cuts_added", counter r "decomp/cuts_added");
    ("decomp.cols_dropped", counter r "decomp/cols_dropped");
    ("decomp.serious_ratio", ratio serious (serious +. null));
    ("decomp.master_rows", gauge r "decomp/master/rows");
    ("lp.rmp_s", phase "master/rmp");
    ("lp.rmp_share", ratio (phase "master/rmp") wall_s);
    ("cache.hits", hits);
    ("cache.misses", misses);
    ("cache.evictions", cache "evictions");
    ("cache.stream_locked", cache "stream_locked");
    ("cache.hit_ratio", ratio hits (hits +. misses));
    ("resil.failovers", counter r "serve/failovers");
    ("resil.rejections.no_capacity", counter r "serve/rejections/no_capacity");
    ("resil.rejections.vho_down", counter r "serve/rejections/vho_down");
    ("resil.rejections.unreachable", counter r "serve/rejections/unreachable");
    ("resil.path_recomputes", counter r "resil/path_recomputes");
    ("resil.link_saturated_s", gauge r "serve/link_saturated_seconds");
    ("serve.daemon.replans", counter r "serve/daemon/replans");
    ("serve.daemon.fault_replans", counter r "serve/daemon/fault_replans");
    ("serve.daemon.fleet_swaps", counter r "serve/fleet_swaps");
    ("serve.daemon.apply_ratio", ratio applied (applied +. deferred));
    ("serve.daemon.moved_gb", series_sum r "serve/daemon/migration_gb");
    ( "serve.daemon.non_solve_s",
      if counter r "serve/daemon/replans" > 0.0 then wall_s -. solve_s else 0.0 );
    ("pool.batches", counter r "pool/batches");
    ("pool.tasks", counter r "pool/tasks");
    ("pool.busy_frac", ratio (pool_busy_s r) (float_of_int jobs *. wall_s));
  ]
