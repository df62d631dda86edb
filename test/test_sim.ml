(* Tests for the playout metrics and direct serving: bin accounting,
   conservation (every request counted exactly once), and determinism. *)

module M = Vod_sim.Metrics

let stream_binning () =
  let m = M.create ~n_links:2 ~horizon_s:1200.0 ~bin_s:300.0 () in
  (* 2 Mb/s for 450 s starting at t=150: bins 0 (150s overlap), 1 (300s),
     2 (0s). *)
  M.add_stream m ~link:0 ~rate_mbps:2.0 ~t0:150.0 ~t1:600.0;
  Alcotest.(check (float 1e-9)) "bin0 avg" 1.0 m.M.link_load.(0).(0);
  Alcotest.(check (float 1e-9)) "bin1 avg" 2.0 m.M.link_load.(0).(1);
  Alcotest.(check (float 1e-9)) "bin2 empty" 0.0 m.M.link_load.(0).(2);
  Alcotest.(check (float 1e-9)) "other link untouched" 0.0 m.M.link_load.(1).(1)

let stream_clamped_to_horizon () =
  let m = M.create ~n_links:1 ~horizon_s:600.0 ~bin_s:300.0 () in
  M.add_stream m ~link:0 ~rate_mbps:2.0 ~t0:450.0 ~t1:10_000.0;
  Alcotest.(check (float 1e-9)) "last bin half" 1.0 m.M.link_load.(0).(1)

let record_from_excludes_warmup () =
  let m = M.create ~n_links:1 ~horizon_s:1200.0 ~bin_s:300.0 ~record_from:600.0 () in
  M.add_stream m ~link:0 ~rate_mbps:2.0 ~t0:0.0 ~t1:900.0;
  Alcotest.(check (float 1e-9)) "warmup bins empty" 0.0 m.M.link_load.(0).(0);
  Alcotest.(check (float 1e-9)) "recorded bin" 2.0 m.M.link_load.(0).(2);
  Alcotest.(check bool) "window test" true (M.in_record_window m 700.0);
  Alcotest.(check bool) "window test 2" false (M.in_record_window m 100.0)

let series_and_peaks () =
  let m = M.create ~n_links:2 ~horizon_s:600.0 ~bin_s:300.0 () in
  M.add_stream m ~link:0 ~rate_mbps:4.0 ~t0:0.0 ~t1:300.0;
  M.add_stream m ~link:1 ~rate_mbps:6.0 ~t0:300.0 ~t1:600.0;
  Alcotest.(check (array (float 1e-9))) "peak series" [| 4.0; 6.0 |] (M.peak_series m);
  Alcotest.(check (array (float 1e-9))) "aggregate series" [| 4.0; 6.0 |] (M.aggregate_series m);
  Alcotest.(check (float 1e-9)) "max link" 6.0 (M.max_link_mbps m)

let stream_boundaries () =
  let m = M.create ~n_links:1 ~horizon_s:900.0 ~bin_s:300.0 () in
  (* Zero-duration streams contribute nothing. *)
  M.add_stream m ~link:0 ~rate_mbps:5.0 ~t0:450.0 ~t1:450.0;
  Alcotest.(check (float 1e-9)) "zero duration" 0.0 m.M.link_load.(0).(1);
  (* A stream ending exactly on a bin edge never touches the next bin. *)
  M.add_stream m ~link:0 ~rate_mbps:2.0 ~t0:300.0 ~t1:600.0;
  Alcotest.(check (float 1e-9)) "edge-aligned bin full" 2.0 m.M.link_load.(0).(1);
  Alcotest.(check (float 1e-9)) "next bin untouched" 0.0 m.M.link_load.(0).(2)

let stream_straddles_record_from () =
  (* record_from cuts a stream mid-bin: only the recorded half counts. *)
  let m =
    M.create ~n_links:1 ~horizon_s:900.0 ~bin_s:300.0 ~record_from:450.0 ()
  in
  M.add_stream m ~link:0 ~rate_mbps:2.0 ~t0:300.0 ~t1:600.0;
  Alcotest.(check (float 1e-9)) "warmup bin empty" 0.0 m.M.link_load.(0).(0);
  Alcotest.(check (float 1e-9)) "recorded half of bin" 1.0 m.M.link_load.(0).(1)

let stream_straddles_horizon () =
  (* 750 s horizon rounds up to 3 bins; the clamp is to the padded bin
     grid, so the last bin fills completely and the weighting divides by
     the full bin width. *)
  let m = M.create ~n_links:1 ~horizon_s:750.0 ~bin_s:300.0 () in
  M.add_stream m ~link:0 ~rate_mbps:3.0 ~t0:550.0 ~t1:2000.0;
  Alcotest.(check (float 1e-9)) "partial mid bin" 0.5 m.M.link_load.(0).(1);
  Alcotest.(check (float 1e-9)) "last bin full" 3.0 m.M.link_load.(0).(2)

let sim_world = Golden.sim_world

(* Direct playout of the whole week through the serving loop. *)
let play ?record_from ~fleet (g, paths, catalog, trace) =
  fst
    (Vod_serve.Loop.run_soa ~graph:g ~paths ~catalog ~fleet
       ~store:trace ?record_from ())

let playout_conservation () =
  let ((_, paths, catalog, trace) as world) = sim_world () in
  let m = play ~fleet:(Golden.lru_fleet paths catalog) world in
  Alcotest.(check int) "every request counted" (Vod_workload.Trace.length trace) m.M.requests;
  (* Per-VHO counters partition the totals. *)
  Alcotest.(check int) "per-vho requests sum" m.M.requests
    (Array.fold_left ( + ) 0 m.M.per_vho_requests);
  Alcotest.(check int) "per-vho local sum" m.M.local_served
    (Array.fold_left ( + ) 0 m.M.per_vho_local);
  Array.iter
    (fun f -> Alcotest.(check bool) "per-vho fraction range" true (f >= 0.0 && f <= 1.0))
    (M.per_vho_local_fraction m);
  Alcotest.(check int) "local+remote = total" m.M.requests
    (m.M.local_served + m.M.remote_served);
  Alcotest.(check bool) "hit rate in [0,1]" true
    (M.local_fraction m >= 0.0 && M.local_fraction m <= 1.0);
  Alcotest.(check bool) "gbhops nonneg" true (m.M.total_gb_hops >= 0.0);
  (* gb x hops >= gb moved (hops >= 1 for any remote transfer). *)
  Alcotest.(check bool) "gbhops >= gb remote" true
    (m.M.total_gb_hops >= m.M.total_gb_remote -. 1e-6)

let playout_deterministic () =
  let ((_, paths, catalog, _) as world) = sim_world () in
  let run () =
    let m = play ~fleet:(Golden.lru_fleet paths catalog) world in
    (m.M.local_served, m.M.total_gb_hops)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "deterministic" true (a = b)

let full_replication_all_local () =
  let ((_, paths, catalog, _) as world) = sim_world () in
  (* Disk large enough to pin the whole library everywhere. *)
  let full = Vod_workload.Catalog.total_size_gb catalog in
  let fleet =
    Vod_cache.Fleet.random_single ~paths ~catalog
      ~disk_gb:(Array.make 4 (2.0 *. full))
      ~policy:Vod_cache.Cache.Lru ~seed:5
  in
  (* Pin everything manually (simulating full replication). *)
  for video = 0 to Vod_workload.Catalog.n_videos catalog - 1 do
    for vho = 0 to 3 do
      Vod_cache.Fleet.pin fleet ~video ~vho
    done
  done;
  let m = play ~fleet world in
  Alcotest.(check int) "all local" m.M.requests m.M.local_served;
  Alcotest.(check (float 1e-9)) "no transfer" 0.0 m.M.total_gb_hops;
  Alcotest.(check (float 1e-9)) "no link load" 0.0 (M.max_link_mbps m)

let warmup_reduces_counted_requests () =
  let ((_, paths, catalog, _) as world) = sim_world () in
  let all = play ~fleet:(Golden.lru_fleet paths catalog) world in
  let recorded =
    play ~fleet:(Golden.lru_fleet paths catalog)
      ~record_from:(2.0 *. Vod_workload.Trace.seconds_per_day) world
  in
  Alcotest.(check bool) "fewer counted" true (recorded.M.requests < all.M.requests);
  Alcotest.(check bool) "nonzero counted" true (recorded.M.requests > 0)

(* Regression: an out-of-range VHO id used to silently skip the per-VHO
   counters (guarded array writes); now a store whose VHO bound exceeds
   the counter arrays is rejected once at playout entry, with both
   bounds in the message. *)
let out_of_range_vho_rejected () =
  let g, paths, catalog, _ = sim_world () in
  let loop =
    Vod_serve.Loop.create ~graph:g ~paths ~catalog
      ~fleet:(Golden.lru_fleet paths catalog) ()
  in
  let store n_vhos ~vho =
    Vod_workload.Trace.of_columns ~n_vhos ~days:1 ~times:[| 10.0 |]
      ~vhos:[| vho |] ~videos:[| 0 |]
  in
  let m =
    M.create ~n_links:(Vod_topology.Graph.n_links g) ~n_vhos:4
      ~horizon_s:86_400.0 ()
  in
  Alcotest.check_raises "validated at entry"
    (Invalid_argument
       "Metrics.validate_store: store allows VHOs up to 7, counters stop at 3")
    (fun () -> Vod_serve.Loop.play_soa loop m (store 8 ~vho:7) ~lo:0 ~hi:1);
  Alcotest.(check int) "nothing counted" 0 m.M.requests;
  (* A well-formed store against the same metrics still plays. *)
  Vod_serve.Loop.play_soa loop m (store 4 ~vho:3) ~lo:0 ~hi:1;
  Alcotest.(check int) "valid store plays" 1 m.M.requests;
  Alcotest.(check int) "attributed to vho 3" 1 m.M.per_vho_requests.(3)

let suite =
  [
    Alcotest.test_case "stream binning" `Quick stream_binning;
    Alcotest.test_case "horizon clamp" `Quick stream_clamped_to_horizon;
    Alcotest.test_case "record_from" `Quick record_from_excludes_warmup;
    Alcotest.test_case "stream boundaries" `Quick stream_boundaries;
    Alcotest.test_case "record_from straddle" `Quick stream_straddles_record_from;
    Alcotest.test_case "horizon straddle" `Quick stream_straddles_horizon;
    Alcotest.test_case "out-of-range vho rejected" `Quick out_of_range_vho_rejected;
    Alcotest.test_case "series and peaks" `Quick series_and_peaks;
    Alcotest.test_case "conservation" `Quick playout_conservation;
    Alcotest.test_case "deterministic" `Quick playout_deterministic;
    Alcotest.test_case "full replication all local" `Quick full_replication_all_local;
    Alcotest.test_case "warmup exclusion" `Quick warmup_reduces_counted_requests;
  ]
