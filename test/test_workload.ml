(* Tests for vod_workload: catalog composition, trace generation, trace
   statistics and demand estimation. *)

module C = Vod_workload.Catalog
module V = Vod_workload.Video
module Tr = Vod_workload.Trace
module Tg = Vod_workload.Tracegen
module S = Vod_workload.Stats
module D = Vod_workload.Demand
module E = Vod_workload.Estimator

let small_catalog () = C.generate (C.default_params ~n:300 ~days:28 ~seed:5)

let populations = Vod_topology.Topologies.zipf_populations ~seed:5 10

let small_trace catalog =
  Tg.generate
    (Tg.default_params ~catalog ~populations ~mean_daily_requests:800.0 ~seed:6)

let trace_jobs_invariant () =
  (* Per-day RNG streams are split by day index before any generation
     runs, so the trace is bit-identical at any job count. *)
  let catalog = small_catalog () in
  let gen jobs =
    Tg.generate ~jobs
      (Tg.default_params ~catalog ~populations ~mean_daily_requests:400.0 ~seed:6)
  in
  let a = gen 1 and b = gen 4 in
  Alcotest.(check int) "same length" (Tr.length a) (Tr.length b);
  for i = 0 to Tr.length a - 1 do
    Alcotest.(check int) "vho" (Tr.vho a i) (Tr.vho b i);
    Alcotest.(check int) "video" (Tr.video a i) (Tr.video b i);
    Alcotest.(check (float 0.0)) "time" (Tr.time a i) (Tr.time b i)
  done

let catalog_composition () =
  let c = small_catalog () in
  Alcotest.(check int) "size" 300 (C.n_videos c);
  let episodes = ref 0 and clips = ref 0 and blockbusters = ref 0 in
  Array.iter
    (fun v ->
      match v.V.kind with
      | V.Episode _ -> incr episodes
      | V.Music_video -> incr clips
      | V.Blockbuster -> incr blockbusters
      | V.Regular -> ())
    c.C.videos;
  Alcotest.(check bool) "has episodes" true (!episodes > 50);
  Alcotest.(check bool) "has clips" true (!clips > 50);
  Alcotest.(check bool) "has blockbusters" true (!blockbusters >= 1);
  Alcotest.(check bool) "library size positive" true (C.total_size_gb c > 0.0)

let catalog_sizes_match_classes () =
  let c = small_catalog () in
  Array.iter
    (fun v ->
      let s = V.size_gb v and d = V.duration_s v in
      (* Paper: 100MB/5min, 500MB/30min, 1GB/1h, 2GB/2h at 2 Mb/s. *)
      Alcotest.(check bool) "size/duration consistent" true
        (match v.V.size_class with
        | V.Clip -> s = 0.1 && d = 300.0
        | V.Show -> s = 0.5 && d = 1800.0
        | V.Movie -> s = 1.0 && d = 3600.0
        | V.Long_movie -> s = 2.0 && d = 7200.0);
      Alcotest.(check (float 0.0)) "rate 2Mbps" 2.0 (V.rate_mbps v))
    c.C.videos

let series_structure () =
  let c = small_catalog () in
  let eps = C.series_episodes c 0 in
  Alcotest.(check bool) "series 0 nonempty" true (List.length eps > 1);
  (* Episodes sorted, and consecutive episodes released 7 days apart. *)
  let rec check = function
    | a :: (b :: _ as rest) ->
        (match (a.V.kind, b.V.kind) with
        | V.Episode x, V.Episode y ->
            Alcotest.(check int) "episode ordering" (x.episode + 1) y.episode;
            Alcotest.(check int) "weekly release" (a.V.release_day + 7) b.V.release_day
        | _ -> Alcotest.fail "non-episode in series");
        check rest
    | _ -> ()
  in
  check eps;
  (* previous_episode links back correctly. *)
  match eps with
  | _ :: second :: _ ->
      let prev = C.previous_episode c second in
      Alcotest.(check bool) "previous episode found" true (Option.is_some prev)
  | _ -> ()

let zipf_weights_decreasing () =
  let w r = C.zipf_cutoff_weight ~exponent:0.8 ~cutoff_frac:0.35 ~n:100 r in
  Alcotest.(check bool) "rank 0 > rank 10" true (w 0 > w 10);
  Alcotest.(check bool) "rank 10 > rank 90" true (w 10 > w 90);
  Alcotest.(check bool) "cutoff bites" true (w 90 /. w 0 < 0.01)

let poisson_mean () =
  let rng = Vod_util.Rng.create 3 in
  List.iter
    (fun lambda ->
      let n = 20_000 in
      let sum = ref 0 in
      for _ = 1 to n do
        sum := !sum + Tg.poisson rng lambda
      done;
      let mean = float_of_int !sum /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "poisson(%.1f) mean" lambda)
        true
        (Float.abs (mean -. lambda) < 0.05 *. Float.max 1.0 lambda))
    [ 0.5; 3.0; 50.0 ]

let trace_valid () =
  let c = small_catalog () in
  let t = small_trace c in
  Alcotest.(check bool) "nonempty" true (Tr.length t > 5_000);
  let prev = ref neg_infinity in
  for i = 0 to Tr.length t - 1 do
    let time_s = Tr.time t i in
    Alcotest.(check bool) "sorted" true (time_s >= !prev);
    prev := time_s;
    Alcotest.(check bool) "vho in range" true (Tr.vho t i >= 0 && Tr.vho t i < 10);
    let v = C.video c (Tr.video t i) in
    Alcotest.(check bool) "released before request" true
      (v.V.release_day <= 0
      || float_of_int v.V.release_day *. Tr.seconds_per_day <= time_s +. Tr.seconds_per_day)
  done

let trace_weekend_heavier () =
  let c = small_catalog () in
  let t = small_trace c in
  (* Fridays+Saturdays (days 4, 5 of each week) should carry more traffic
     than Mondays+Tuesdays. *)
  let day_count = Array.make 28 0 in
  for i = 0 to Tr.length t - 1 do
    let d = Tr.day_of_time (Tr.time t i) in
    if d < 28 then day_count.(d) <- day_count.(d) + 1
  done;
  let sum_days f =
    let acc = ref 0 in
    for d = 0 to 27 do
      if f (d mod 7) then acc := !acc + day_count.(d)
    done;
    !acc
  in
  let weekend = sum_days (fun dw -> dw = 4 || dw = 5) in
  let weekday = sum_days (fun dw -> dw = 0 || dw = 1) in
  Alcotest.(check bool) "Fri/Sat heavier than Mon/Tue" true (weekend > weekday)

let trace_popularity_skew () =
  let c = small_catalog () in
  let t = small_trace c in
  let counts = Tr.counts_per_video t ~n_videos:(C.n_videos c) in
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  let total = Array.fold_left ( + ) 0 sorted in
  let top30 = ref 0 in
  for i = 0 to 29 do
    top30 := !top30 + sorted.(i)
  done;
  (* Top 10% of videos should hold well over 10% of requests. *)
  Alcotest.(check bool) "skewed" true (float_of_int !top30 > 0.2 *. float_of_int total)

let days t ~day_lo ~day_hi =
  Tr.between t
    ~t0_s:(float_of_int day_lo *. Tr.seconds_per_day)
    ~t1_s:(float_of_int day_hi *. Tr.seconds_per_day)

let between_slices () =
  let c = small_catalog () in
  let t = small_trace c in
  let lo1, hi1 = days t ~day_lo:0 ~day_hi:7 in
  let lo2, hi2 = days t ~day_lo:7 ~day_hi:14 in
  Alcotest.(check (pair int int)) "partition" (lo1, hi2) (days t ~day_lo:0 ~day_hi:14);
  Alcotest.(check int) "adjacent" hi1 lo2;
  for i = lo1 to hi1 - 1 do
    Alcotest.(check bool) "in window" true (Tr.day_of_time (Tr.time t i) < 7)
  done;
  Alcotest.(check bool) "rest starts at day 7" true
    (hi1 = Tr.length t || Tr.day_of_time (Tr.time t hi1) >= 7)

let peak_windows_distinct_days () =
  let c = small_catalog () in
  let t = small_trace c in
  let d =
    D.of_soa c ~n_vhos:10 ~day0:0 ~days:28 ~n_windows:2 ~window_s:3600.0 t ~lo:0
      ~hi:(Tr.length t)
  in
  match d.D.windows with
  | [| (a, a1); (b, b1) |] ->
      Alcotest.(check bool) "one hour each" true (a1 -. a = 3600.0 && b1 -. b = 3600.0);
      Alcotest.(check bool) "distinct days" true
        (Tr.day_of_time a <> Tr.day_of_time b)
  | _ -> Alcotest.fail "expected two windows"

let working_set_sane () =
  let c = small_catalog () in
  let t = small_trace c in
  let peak = S.peak_hour_start_s t in
  let distinct, gb = S.working_set t c ~vho:0 ~t0:peak ~t1:(peak +. 3600.0) in
  Alcotest.(check bool) "some distinct videos" true (distinct > 0);
  Alcotest.(check bool) "gb positive" true (gb > 0.0);
  Alcotest.(check bool) "gb bounded by catalog" true (gb <= C.total_size_gb c)

let cosine_window_monotone () =
  let c = small_catalog () in
  let t = small_trace c in
  let avg w = Vod_util.Stats_acc.mean (Option.get (S.peak_interval_similarity t ~window_s:w)) in
  (* Daily mixes are more similar than 30-minute mixes (paper Fig. 3). *)
  Alcotest.(check bool) "daily more similar than sub-hourly" true
    (avg 86_400.0 > avg 1_800.0)

(* On a one-day trace the peak falls in the first one-day window, which
   has no window before it: there is no similarity to report, rather
   than a perfect one. A half-hour window still has a predecessor. *)
let similarity_needs_previous_window () =
  let catalog = C.generate (C.default_params ~n:30 ~days:1 ~seed:5) in
  let t =
    Tg.generate (Tg.default_params ~catalog ~populations ~mean_daily_requests:400.0 ~seed:6)
  in
  Alcotest.(check bool) "no day before the peak day" true
    (Option.is_none (S.peak_interval_similarity t ~window_s:86_400.0));
  Alcotest.(check bool) "a half hour before the peak's" true
    (Option.is_some (S.peak_interval_similarity t ~window_s:1_800.0))

let concurrency_counts () =
  let c = small_catalog () in
  let t = small_trace c in
  let d =
    D.of_soa c ~n_vhos:10 ~day0:0 ~days:28 ~n_windows:1 ~window_s:3600.0 t ~lo:0
      ~hi:(Tr.length t)
  in
  let peak = S.peak_hour_start_s t in
  let d = D.with_windows c d t [| (peak, peak +. 3600.0) |] in
  Alcotest.(check bool) "nonempty" true (Array.exists (fun l -> l <> [||]) d.D.f.(0));
  (* Every concurrent pair must exist in aggregate demand. *)
  Array.iteri
    (fun video pairs ->
      Array.iter
        (fun (vho, n) ->
          Alcotest.(check bool) "positive" true (n > 0.0);
          Alcotest.(check bool) "also in aggregate" true
            (Array.exists (fun (j, _) -> j = vho) d.D.a.(video)))
        pairs)
    d.D.f.(0)

let demand_of_requests () =
  let c = small_catalog () in
  let t = small_trace c in
  let lo, hi = days t ~day_lo:7 ~day_hi:14 in
  let d = D.of_soa c ~n_vhos:10 ~day0:7 ~days:7 ~n_windows:2 ~window_s:3600.0 t ~lo ~hi in
  Alcotest.(check int) "windows" 2 (Array.length d.D.windows);
  Alcotest.(check (float 0.5)) "total requests" (float_of_int (hi - lo)) d.D.total_requests;
  (* Sum of sparse a equals request count. *)
  let sum = Array.fold_left (fun acc pairs -> Array.fold_left (fun a (_, c) -> a +. c) acc pairs) 0.0 d.D.a in
  Alcotest.(check (float 0.5)) "a sums to requests" (float_of_int (hi - lo)) sum;
  (* The whole trace as input, rebased to day 7, is the same week. *)
  Alcotest.(check bool) "rows outside the period are dropped" true
    (d
    = D.of_soa c ~n_vhos:10 ~day0:7 ~days:7 ~n_windows:2 ~window_s:3600.0 t ~lo:0
        ~hi:(Tr.length t));
  let ranked = D.rank_by_demand d in
  Alcotest.(check bool) "ranking sorted" true
    (D.video_requests d ranked.(0) >= D.video_requests d ranked.(Array.length ranked - 1))

let estimator_history_only () =
  let c = small_catalog () in
  let t = small_trace c in
  let pred = E.predict_at E.History_only c t ~t0_s:(14.0 *. Tr.seconds_per_day) in
  let lo, hi = days t ~day_lo:7 ~day_hi:14 in
  Alcotest.(check int) "same count" (hi - lo) (Tr.length pred);
  Alcotest.(check int) "a week long" 7 pred.Tr.days;
  (* Shifted one week forward, onto a week that starts at time 0. *)
  for i = 0 to Tr.length pred - 1 do
    Alcotest.(check (float 1e-6)) "shifted 7d, rebased to day 14"
      (Tr.time t (lo + i) -. (7.0 *. Tr.seconds_per_day))
      (Tr.time pred i)
  done

let estimator_series_covers_new () =
  let c = small_catalog () in
  let t = small_trace c in
  let t0_s = 14.0 *. Tr.seconds_per_day in
  let pred = E.predict_at E.Series_blockbuster c t ~t0_s in
  let hist = E.predict_at E.History_only c t ~t0_s in
  Alcotest.(check bool) "adds predictions" true (Tr.length pred >= Tr.length hist);
  let counts = Tr.counts_per_video pred ~n_videos:(C.n_videos c) in
  (* Predicted requests for a new episode exist if an episode releases
     in [14, 21) and its predecessor had requests. *)
  let new_eps =
    Array.to_list c.C.videos
    |> List.filter (fun v ->
           match v.V.kind with
           | V.Episode _ -> v.V.release_day >= 14 && v.V.release_day < 21
           | _ -> false)
  in
  if new_eps <> [] then begin
    let covered =
      List.exists
        (fun v -> counts.(v.V.id) > 0)
        new_eps
    in
    Alcotest.(check bool) "some new episode predicted" true covered
  end

let estimator_perfect () =
  let c = small_catalog () in
  let t = small_trace c in
  let pred = E.predict_at E.Perfect c t ~t0_s:(14.0 *. Tr.seconds_per_day) in
  let lo, hi = days t ~day_lo:14 ~day_hi:21 in
  Alcotest.(check int) "perfect = actual" (hi - lo) (Tr.length pred)

let suite =
  [
    Alcotest.test_case "catalog composition" `Quick catalog_composition;
    Alcotest.test_case "size classes" `Quick catalog_sizes_match_classes;
    Alcotest.test_case "series structure" `Quick series_structure;
    Alcotest.test_case "zipf weights" `Quick zipf_weights_decreasing;
    Alcotest.test_case "poisson mean" `Quick poisson_mean;
    Alcotest.test_case "trace valid" `Quick trace_valid;
    Alcotest.test_case "trace jobs invariant" `Quick trace_jobs_invariant;
    Alcotest.test_case "weekend heavier" `Quick trace_weekend_heavier;
    Alcotest.test_case "popularity skew" `Quick trace_popularity_skew;
    Alcotest.test_case "between slices" `Quick between_slices;
    Alcotest.test_case "peak windows distinct days" `Quick peak_windows_distinct_days;
    Alcotest.test_case "working set sane" `Quick working_set_sane;
    Alcotest.test_case "cosine window monotone" `Quick cosine_window_monotone;
    Alcotest.test_case "similarity needs a previous window" `Quick
      similarity_needs_previous_window;
    Alcotest.test_case "concurrency counts" `Quick concurrency_counts;
    Alcotest.test_case "demand of requests" `Quick demand_of_requests;
    Alcotest.test_case "estimator history" `Quick estimator_history_only;
    Alcotest.test_case "estimator series" `Quick estimator_series_covers_new;
    Alcotest.test_case "estimator perfect" `Quick estimator_perfect;
  ]
