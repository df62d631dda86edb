(* Second round of workload tests: release dynamics, catalog invariants
   and the temporal profiles — the properties the paper's estimation and
   peak-window machinery depend on. *)

module C = Vod_workload.Catalog
module V = Vod_workload.Video
module Tr = Vod_workload.Trace
module Tg = Vod_workload.Tracegen
module S = Vod_workload.Stats
module P = Vod_workload.Profiles

let catalog () = C.generate (C.default_params ~n:400 ~days:28 ~seed:9)

let populations = Vod_topology.Topologies.zipf_populations ~seed:9 12

let trace catalog =
  Tg.generate
    (Tg.default_params ~catalog ~populations ~mean_daily_requests:1500.0 ~seed:10)

let blockbuster_schedule () =
  let c = catalog () in
  (* Exactly blockbusters_per_week x weeks blockbusters, spread over the
     trace weeks, all released on Saturdays (weekday 5). *)
  let bbs =
    Array.to_list c.C.videos
    |> List.filter (fun v -> v.V.kind = V.Blockbuster)
  in
  Alcotest.(check int) "count" (2 * 4) (List.length bbs);
  List.iter
    (fun v ->
      Alcotest.(check bool) "released during trace" true
        (v.V.release_day > 0 && v.V.release_day < 28);
      Alcotest.(check int) "Saturday release" 5 (v.V.release_day mod 7))
    bbs;
  let weeks = List.map (fun v -> v.V.release_day / 7) bbs |> List.sort_uniq compare in
  Alcotest.(check int) "all four weeks covered" 4 (List.length weeks)

let episodes_share_popularity () =
  let c = catalog () in
  (* All episodes of a series carry the same base weight. *)
  for s = 0 to c.C.n_series - 1 do
    match C.series_episodes c s with
    | [] -> ()
    | first :: rest ->
        List.iter
          (fun v ->
            Alcotest.(check (float 1e-12)) "same base weight" first.V.base_weight
              v.V.base_weight)
          rest
  done

let in_season_split () =
  let c = catalog () in
  let in_season = Hashtbl.create 16 and off_season = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      match v.V.kind with
      | V.Episode { series; _ } ->
          if v.V.release_day > 0 then Hashtbl.replace in_season series ()
          else Hashtbl.replace off_season series ()
      | _ -> ())
    c.C.videos;
  Alcotest.(check bool) "some series in season" true (Hashtbl.length in_season > 0);
  Alcotest.(check bool) "some series off season" true (Hashtbl.length off_season > 0)

let release_spike_shape () =
  let c = catalog () in
  let t = trace c in
  (* For an in-season episode released mid-trace: requests peak within 2
     days of release and decay after. *)
  let target =
    Array.to_list c.C.videos
    |> List.find_opt (fun v ->
           match v.V.kind with
           | V.Episode _ -> v.V.release_day = 11
           | _ -> false)
  in
  match target with
  | None -> Alcotest.fail "no episode released on day 11"
  | Some v ->
      let daily = S.daily_counts t ~video:v.V.id in
      let release_window = daily.(11) + daily.(12) in
      let later = daily.(18) + daily.(19) in
      Alcotest.(check int) "silent before release" 0
        (Array.fold_left ( + ) 0 (Array.sub daily 0 11));
      Alcotest.(check bool)
        (Printf.sprintf "spike decays (%d then %d)" release_window later)
        true
        (release_window > later)

let day_weight_semantics () =
  let v_unreleased =
    { V.id = 0; size_class = V.Show; kind = V.Regular; release_day = 20; base_weight = 0.5 }
  in
  Alcotest.(check (float 0.0)) "zero before release" 0.0
    (P.video_day_weight v_unreleased ~day:10);
  Alcotest.(check bool) "spike at release" true
    (P.video_day_weight v_unreleased ~day:20 > 0.5);
  let v_old = { v_unreleased with V.release_day = 0 } in
  Alcotest.(check (float 1e-12)) "steady state" 0.5 (P.video_day_weight v_old ~day:10)

let profile_tables () =
  Alcotest.(check int) "7 weekdays" 7 (Array.length P.day_of_week_weight);
  Alcotest.(check int) "24 hours" 24 (Array.length P.hour_of_day_weight);
  (* Friday and Saturday are the two busiest days (paper Sec. VI-B). *)
  let sorted =
    List.sort (fun a b -> compare b a) (Array.to_list P.day_of_week_weight)
  in
  (match sorted with
  | a :: b :: _ ->
      Alcotest.(check (float 1e-9)) "saturday top" P.day_of_week_weight.(5) a;
      Alcotest.(check (float 1e-9)) "friday second" P.day_of_week_weight.(4) b
  | _ -> Alcotest.fail "impossible");
  (* Prime time beats overnight. *)
  Alcotest.(check bool) "prime time peak" true (P.hour_weight 21 > 4.0 *. P.hour_weight 3);
  Alcotest.(check bool) "cyclic day" true (P.day_weight 7 = P.day_weight 0)

let taste_multiplier_props () =
  let spread = 0.6 in
  for vho = 0 to 20 do
    for video = 0 to 20 do
      let m = P.taste_multiplier ~spread ~vho ~video in
      Alcotest.(check bool) "within bounds" true (m >= 1.0 -. spread && m <= 1.0 +. spread);
      Alcotest.(check (float 1e-12)) "deterministic" m (P.taste_multiplier ~spread ~vho ~video)
    done
  done

let series_taste_stable_across_episodes () =
  (* Episodes of the same series attract the same VHO mix: their per-VHO
     request shares should correlate strongly. Uses two consecutive
     in-season episodes with enough volume. *)
  let c = catalog () in
  let t = trace c in
  let eps =
    Array.to_list c.C.videos
    |> List.filter (fun v ->
           match v.V.kind with
           | V.Episode { series; _ } -> series = 0 && v.V.release_day > 0 && v.V.release_day <= 14
           | _ -> false)
  in
  match eps with
  | a :: b :: _ ->
      let shares video =
        let counts = Array.make 12 0.0 in
        for i = 0 to Tr.length t - 1 do
          if Tr.video t i = video then counts.(Tr.vho t i) <- counts.(Tr.vho t i) +. 1.0
        done;
        let tbl = Hashtbl.create 12 in
        Array.iteri (fun i c -> if c > 0.0 then Hashtbl.replace tbl i c) counts;
        tbl
      in
      let sim =
        Vod_util.Stats_acc.cosine_similarity (shares a.V.id) (shares b.V.id)
      in
      Alcotest.(check bool)
        (Printf.sprintf "episode VHO mixes similar (cos %.2f)" sim)
        true (sim > 0.7)
  | _ -> ()

let zipf_fit_recovers_exponent () =
  (* Synthetic counts drawn exactly from r^-0.8 must fit back to ~0.8. *)
  let counts = Array.init 500 (fun r -> int_of_float (1e6 *. ((float_of_int (r + 1)) ** -0.8))) in
  let alpha = S.fit_zipf_exponent counts in
  Alcotest.(check bool) (Printf.sprintf "alpha ~ 0.8 (got %.2f)" alpha) true
    (Float.abs (alpha -. 0.8) < 0.05)

let generated_trace_matches_popularity_law () =
  let c = catalog () in
  let t = trace c in
  let counts = Vod_workload.Trace.counts_per_video t ~n_videos:(C.n_videos c) in
  let alpha = S.fit_zipf_exponent counts in
  (* Release spikes and taste noise flatten/steepen the head a little;
     accept a generous band around the configured 0.8. *)
  Alcotest.(check bool) (Printf.sprintf "alpha in [0.4, 1.3] (got %.2f)" alpha) true
    (alpha > 0.4 && alpha < 1.3)

let fit_zipf_validation () =
  Alcotest.check_raises "too few points"
    (Invalid_argument "Stats.fit_zipf_exponent: not enough positive counts")
    (fun () -> ignore (S.fit_zipf_exponent [| 5 |]))

let concurrency_window_monotone () =
  (* Larger windows can only count more concurrent streams (Table V's
     over-provisioning mechanism). *)
  let c = catalog () in
  let t = trace c in
  let d =
    Vod_workload.Demand.of_soa c ~n_vhos:12 ~day0:0 ~days:28 ~n_windows:1
      ~window_s:3600.0 t ~lo:0 ~hi:(Tr.length t)
  in
  let total window_s =
    let peak = S.peak_hour_start_s t in
    let d = Vod_workload.Demand.with_windows c d t [| (peak, peak +. window_s) |] in
    Array.fold_left
      (fun acc pairs -> Array.fold_left (fun acc (_, n) -> acc +. n) acc pairs)
      0.0 d.Vod_workload.Demand.f.(0)
  in
  let small = total 1.0 and hour = total 3600.0 and day = total 86_400.0 in
  Alcotest.(check bool) "1s <= 1h" true (small <= hour);
  Alcotest.(check bool) "1h <= 1day" true (hour <= day)

let suite =
  [
    Alcotest.test_case "blockbuster schedule" `Quick blockbuster_schedule;
    Alcotest.test_case "episodes share popularity" `Quick episodes_share_popularity;
    Alcotest.test_case "in-season split" `Quick in_season_split;
    Alcotest.test_case "release spike shape" `Quick release_spike_shape;
    Alcotest.test_case "day weight semantics" `Quick day_weight_semantics;
    Alcotest.test_case "profile tables" `Quick profile_tables;
    Alcotest.test_case "taste multiplier" `Quick taste_multiplier_props;
    Alcotest.test_case "series taste stability" `Quick series_taste_stable_across_episodes;
    Alcotest.test_case "concurrency monotone in window" `Quick concurrency_window_monotone;
    Alcotest.test_case "zipf fit recovers exponent" `Quick zipf_fit_recovers_exponent;
    Alcotest.test_case "trace matches popularity law" `Quick generated_trace_matches_popularity_law;
    Alcotest.test_case "zipf fit validation" `Quick fit_zipf_validation;
  ]
