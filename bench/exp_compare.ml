(* The head-to-head evaluation of Sec. VII-B:

   Fig. 5 — peak link bandwidth over the 3 playout weeks (daily maxima of
            the 5-minute series), MIP vs Random+LRU / Random+LFU /
            Top-100+LRU.
   Fig. 6 — aggregate bandwidth across all links (daily maxima of the
            5-minute sums).
   Fig. 7 — disk usage split by popularity class under the MIP placement.
   Fig. 8 — number of copies per video vs demand rank.
   Fig. 9 — LRU cache dynamics (remote serves, non-cachable requests). *)

let daily_maxima (metrics : Vod_sim.Metrics.t) series =
  let bins_per_day = int_of_float (86_400.0 /. metrics.Vod_sim.Metrics.bin_s) in
  let days = metrics.Vod_sim.Metrics.n_bins / bins_per_day in
  Array.init days (fun d ->
      let acc = ref 0.0 in
      for b = d * bins_per_day to min (((d + 1) * bins_per_day) - 1) (Array.length series - 1) do
        if series.(b) > !acc then acc := series.(b)
      done;
      !acc)

let run (sc : Vod_core.Scenario.t) =
  Common.section "Figs. 5-9 — MIP vs caching baselines (Sec. VII-B)";
  let link_mbps = Common.calibrate_link_capacity sc ~disk_multiple:2.0 in
  Common.note "calibrated MIP link constraint: %.0f Mb/s (paper: 1 Gb/s)" link_mbps;
  let cfg = Common.pipeline_config ~disk_multiple:2.0 ~link_capacity_mbps:link_mbps sc in
  let schemes =
    [
      Vod_core.Pipeline.Mip Common.mip_config;
      Vod_core.Pipeline.Random_cache Vod_cache.Cache.Lru;
      Vod_core.Pipeline.Random_cache Vod_cache.Cache.Lfu;
      Vod_core.Pipeline.Topk_lru 100;
    ]
  in
  (* One playout per scheme, fanned out across the domain pool; each
     fleet is independent and deterministic, so only wall-clock
     changes. Notes are printed after the join to keep output ordered. *)
  let results =
    Common.parallel_runs
      (List.map
         (fun s () -> Common.timed (fun () -> Vod_core.Pipeline.run cfg s))
         schemes)
    |> List.map (fun (r, dt) ->
           Common.note "ran %s in %.1fs" r.Vod_core.Pipeline.scheme_name dt;
           r)
  in
  (* ---- Fig. 5: daily peak link bandwidth ---- *)
  Common.section "Fig. 5 — peak link bandwidth (daily max of 5-min series, Mb/s)";
  let peaks =
    List.map
      (fun (r : Vod_core.Pipeline.result) ->
        daily_maxima r.Vod_core.Pipeline.metrics
          (Vod_sim.Metrics.peak_series r.Vod_core.Pipeline.metrics))
      results
  in
  let days = Array.length (List.hd peaks) in
  let header = "day" :: List.map (fun r -> r.Vod_core.Pipeline.scheme_name) results in
  let rows = ref [] in
  for d = Common.days - 19 to days - 1 do
    rows :=
      (string_of_int d :: List.map (fun p -> Printf.sprintf "%.0f" p.(d)) peaks) :: !rows
  done;
  Vod_util.Table.print ~header (List.rev !rows);
  let overall =
    List.map
      (fun (r : Vod_core.Pipeline.result) ->
        Vod_sim.Metrics.max_link_mbps r.Vod_core.Pipeline.metrics)
      results
  in
  Vod_util.Table.print ~header:("" :: List.tl header)
    [ "overall max (Mb/s)" :: List.map (Printf.sprintf "%.0f") overall ];
  Common.note
    "paper: MIP 1364 Mb/s vs LRU 2400 / LFU 2366 / Top-100 2938 — MIP needs ~half the peak.";
  (* ---- Fig. 6: aggregate bandwidth ---- *)
  Common.section "Fig. 6 — aggregate bandwidth across links (daily max of 5-min sums, Mb/s)";
  let aggs =
    List.map
      (fun (r : Vod_core.Pipeline.result) ->
        daily_maxima r.Vod_core.Pipeline.metrics
          (Vod_sim.Metrics.aggregate_series r.Vod_core.Pipeline.metrics))
      results
  in
  let rows = ref [] in
  for d = Common.days - 19 to days - 1 do
    rows :=
      (string_of_int d :: List.map (fun p -> Printf.sprintf "%.0f" p.(d)) aggs) :: !rows
  done;
  Vod_util.Table.print ~header (List.rev !rows);
  Vod_util.Table.print
    ~header:("" :: List.tl header)
    [
      "total transfer (GB x hop)"
      :: List.map
           (fun (r : Vod_core.Pipeline.result) ->
             Printf.sprintf "%.0f" r.Vod_core.Pipeline.metrics.Vod_sim.Metrics.total_gb_hops)
           results;
      "served locally"
      :: List.map
           (fun (r : Vod_core.Pipeline.result) ->
             Common.fmt_pct (Vod_sim.Metrics.local_fraction r.Vod_core.Pipeline.metrics))
           results;
    ];
  Common.note "paper: MIP consistently transfers fewer bytes; LRU ~ LFU; Top-100 worst.";
  (* ---- Fig. 7 / Fig. 8: placement analytics from the MIP's last solve ---- *)
  (match Vod_core.Pipeline.last_solution (List.hd results) with
  | None -> ()
  | Some sol ->
      let demand = Vod_core.Scenario.demand_of_week sc ~day0:(Common.days - 7) in
      let ranked = Vod_workload.Demand.rank_by_demand demand in
      Common.section "Fig. 7 — disk usage by popularity class (MIP placement)";
      let catalog = sc.Vod_core.Scenario.catalog in
      let class_of =
        let cls = Array.make (Vod_workload.Catalog.n_videos catalog) 2 in
        Array.iteri
          (fun rank video ->
            if rank < 100 then cls.(video) <- 0
            else if rank < Array.length ranked / 5 then cls.(video) <- 1)
          ranked;
        cls
      in
      let usage = Array.make_matrix 3 1 0.0 in
      Array.iteri
        (fun video vhos ->
          let s = Vod_workload.Video.size_gb (Vod_workload.Catalog.video catalog video) in
          usage.(class_of.(video)).(0) <-
            usage.(class_of.(video)).(0) +. (s *. float_of_int (Array.length vhos)))
        sol.Vod_placement.Solution.stored;
      let total = usage.(0).(0) +. usage.(1).(0) +. usage.(2).(0) in
      Vod_util.Table.print
        ~header:[ "class"; "disk used (GB)"; "share" ]
        [
          [ "top-100"; Printf.sprintf "%.0f" usage.(0).(0); Common.fmt_pct (usage.(0).(0) /. total) ];
          [ "medium (next 20%)"; Printf.sprintf "%.0f" usage.(1).(0); Common.fmt_pct (usage.(1).(0) /. total) ];
          [ "unpopular"; Printf.sprintf "%.0f" usage.(2).(0); Common.fmt_pct (usage.(2).(0) /. total) ];
        ];
      Common.note
        "paper: top-100 occupy a small share; medium-popular videos take >30%% of total disk.";
      Common.section "Fig. 8 — number of copies vs demand rank (MIP placement)";
      let sample_ranks = [ 0; 1; 2; 4; 9; 19; 49; 99; 199; 499; 999 ] in
      let rows =
        List.filter_map
          (fun r ->
            if r < Array.length ranked then
              Some
                [
                  string_of_int (r + 1);
                  string_of_int (Vod_placement.Solution.copies sol ranked.(r));
                  Printf.sprintf "%.0f" (Vod_workload.Demand.video_requests demand ranked.(r));
                ]
            else None)
          sample_ranks
      in
      Vod_util.Table.print ~header:[ "demand rank"; "copies"; "weekly requests" ] rows;
      let multi =
        Array.fold_left
          (fun acc vhos -> if Array.length vhos > 1 then acc + 1 else acc)
          0 sol.Vod_placement.Solution.stored
      in
      Common.note
        "paper: popular videos get more copies but are not replicated everywhere; >1500 of 2000 ranked videos have multiple copies. measured: %d videos with multiple copies."
        multi);
  (* ---- Fig. 9: LRU cache dynamics ---- *)
  Common.section "Fig. 9 — LRU cache dynamics (Random+LRU baseline)";
  (match results with
  | _ :: (lru : Vod_core.Pipeline.result) :: _ ->
      let m = lru.Vod_core.Pipeline.metrics in
      Vod_util.Table.print
        ~header:[ "metric"; "value" ]
        [
          [ "requests"; string_of_int m.Vod_sim.Metrics.requests ];
          [ "served remotely"; Common.fmt_pct (1.0 -. Vod_sim.Metrics.local_fraction m) ];
          [
            "not cachable (cache full of busy streams)";
            Common.fmt_pct
              (float_of_int m.Vod_sim.Metrics.not_cachable
              /. float_of_int (max 1 m.Vod_sim.Metrics.requests));
          ];
          [ "cache hits"; Common.fmt_pct (float_of_int m.Vod_sim.Metrics.cache_hits /. float_of_int (max 1 m.Vod_sim.Metrics.requests)) ];
        ];
      Common.note "paper: ~60%% of requests served remotely; ~20%% not cachable."
  | _ -> ());
  results
