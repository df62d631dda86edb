(* Demand estimation for new releases (Sec. VI-A): compare the paper's
   series+blockbuster strategy against no estimation and an oracle, both
   on prediction accuracy (per-video request counts for the upcoming
   week) and on end-to-end placement performance.

     dune exec examples/demand_estimation.exe *)

let () =
  let sc = Vod_core.Scenario.backbone ~n_videos:800 ~seed:51 () in
  let catalog = sc.Vod_core.Scenario.catalog in
  let trace = sc.Vod_core.Scenario.trace in
  let week_start = 14 in
  (* --- prediction accuracy for the videos releasing next week --- *)
  let counts strategy =
    Vod_workload.Trace.counts_per_video
      (Vod_workload.Estimator.predict_at strategy catalog trace
         ~t0_s:(float_of_int week_start *. Vod_workload.Trace.seconds_per_day))
      ~n_videos:(Vod_workload.Catalog.n_videos catalog)
  in
  let actual = counts Vod_workload.Estimator.Perfect in
  let new_videos =
    Array.to_list catalog.Vod_workload.Catalog.videos
    |> List.filter (fun (v : Vod_workload.Video.t) ->
           v.Vod_workload.Video.release_day >= week_start
           && v.Vod_workload.Video.release_day < week_start + 7)
  in
  Printf.printf "%d videos release during week %d\n\n" (List.length new_videos)
    (week_start / 7);
  let predicted = counts Vod_workload.Estimator.Series_blockbuster in
  let rows =
    List.filteri (fun i _ -> i < 8) new_videos
    |> List.map (fun (v : Vod_workload.Video.t) ->
           let kind =
             match v.Vod_workload.Video.kind with
             | Vod_workload.Video.Episode e -> Printf.sprintf "s%02d/ep%d" e.series e.episode
             | Vod_workload.Video.Blockbuster -> "blockbuster"
             | _ -> "other"
           in
           [
             kind;
             string_of_int predicted.(v.Vod_workload.Video.id);
             string_of_int actual.(v.Vod_workload.Video.id);
           ])
  in
  Vod_util.Table.print ~header:[ "new video"; "predicted"; "actual" ] rows;
  (* --- end-to-end effect on the placement --- *)
  print_newline ();
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:2.0 in
  let cfg =
    Vod_core.Pipeline.default_config ~scenario:sc ~disk_gb:disk
      ~link_capacity_mbps:800.0
  in
  let engine = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 35 } in
  let run est =
    let mip =
      { Vod_core.Pipeline.default_mip with Vod_core.Pipeline.estimator = est; engine }
    in
    let r = Vod_core.Pipeline.run cfg (Vod_core.Pipeline.Mip mip) in
    let m = r.Vod_core.Pipeline.metrics in
    [
      Vod_workload.Estimator.name est;
      Printf.sprintf "%.0f" (Vod_sim.Metrics.max_link_mbps m);
      Printf.sprintf "%.0f" m.Vod_sim.Metrics.total_gb_hops;
      Printf.sprintf "%.1f%%" (100.0 *. Vod_sim.Metrics.local_fraction m);
    ]
  in
  Vod_util.Table.print
    ~header:[ "estimator"; "peak link (Mb/s)"; "GB x hop"; "local" ]
    [
      run Vod_workload.Estimator.History_only;
      run Vod_workload.Estimator.Series_blockbuster;
      run Vod_workload.Estimator.Perfect;
    ];
  print_newline ();
  print_endline
    "The paper's point (Table VI): the simple series/blockbuster donor\n\
     strategy recovers most of the gap between no estimation and perfect\n\
     knowledge."
