(* Table V — peak-window size vs bandwidth (Sec. VII-G). For each window
   size (1 s ... 1 day): find the minimum feasible uniform link capacity
   when the MIP enforces links only during the |T| = 2 peak windows of
   that size, then play the week out and report (a) the realized max link
   load during the chosen windows and (b) over the whole period.

   Tiny windows under-provision (peak outside the window exceeds the
   constraint); day-long windows over-provision (concurrency counted over
   a day overstates instantaneous load); 1-hour windows are the sweet
   spot. *)

let window_videos =
  match Common.scale with Quick -> 400 | Default -> 1000 | Full | Huge -> 2500

let run () =
  Common.section "Table V — peak window size vs bandwidth";
  let sc = Common.backbone_scenario ~n_videos:window_videos () in
  let graph = sc.Vod_core.Scenario.graph in
  let catalog = sc.Vod_core.Scenario.catalog in
  let paths = sc.Vod_core.Scenario.paths in
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:2.0 in
  let trace = sc.Vod_core.Scenario.trace in
  let lo, hi =
    Vod_workload.Trace.between trace ~t0_s:0.0
      ~t1_s:(7.0 *. Vod_workload.Trace.seconds_per_day)
  in
  let week0 =
    { (Vod_workload.Trace.sub trace ~lo ~hi) with Vod_workload.Trace.days = 7 }
  in
  let windows = [ ("1 second", 1.0); ("1 minute", 60.0); ("1 hour", 3600.0); ("1 day", 86_400.0) ] in
  let rows =
    List.map
      (fun (label, window_s) ->
        let demand =
          Vod_workload.Demand.of_soa catalog
            ~n_vhos:(Vod_topology.Graph.n_nodes graph) ~day0:0 ~days:7 ~n_windows:2
            ~window_s week0 ~lo:0 ~hi:(Vod_workload.Trace.length week0)
        in
        let feas_cap =
          Vod_placement.Feasibility.min_link_capacity ~params:Common.probe_params
            ~lo:5.0 ~hi:Common.feasibility_hi_mbps ~tol:0.1 ~graph ~catalog
            ~demand ~disk_gb:disk ()
        in
        match feas_cap with
        | None ->
            [ label; Printf.sprintf ">%.0f" Common.feasibility_hi_mbps; "-"; "-" ]
        | Some cap ->
            (* Solve at that capacity and play out the same week. *)
            let inst =
              Vod_placement.Instance.create ~graph ~catalog ~demand ~disk_gb:disk
                ~link_capacity_mbps:(Vod_placement.Instance.uniform_links graph cap)
                ()
            in
            let report = Vod_placement.Solve.solve ~params:Common.solve_params inst in
            let fleet =
              Vod_cache.Fleet.mip ~solution:report.Vod_placement.Solve.solution ~paths
                ~catalog
                ~cache_gb:(Array.make (Vod_topology.Graph.n_nodes graph) 0.0)
            in
            let metrics, _ =
              Vod_serve.Loop.run_soa ~graph ~paths ~catalog ~fleet ~store:week0
                ~bin_s:(Float.min 300.0 (Float.max 1.0 window_s)) ()
            in
            let peak_series = Vod_sim.Metrics.peak_series metrics in
            let bin_s = metrics.Vod_sim.Metrics.bin_s in
            (* Max during the LP's chosen windows... *)
            let in_window t =
              Array.exists
                (fun (t0, t1) -> t >= t0 && t < t1)
                demand.Vod_workload.Demand.windows
            in
            let max_in = ref 0.0 and max_all = ref 0.0 in
            Array.iteri
              (fun b v ->
                if v > !max_all then max_all := v;
                if in_window (float_of_int b *. bin_s) && v > !max_in then max_in := v)
              peak_series;
            [
              label;
              Printf.sprintf "%.0f" cap;
              Printf.sprintf "%.0f" !max_in;
              Printf.sprintf "%.0f" !max_all;
            ])
      windows
  in
  Vod_util.Table.print
    ~header:
      [
        "window size";
        "feasibility constraint (Mb/s)";
        "max during LP window (Mb/s)";
        "max entire period (Mb/s)";
      ]
    rows;
  Common.note
    "paper (Gb/s): 1s -> 0.5/0.5/0.85 (underestimates), 1h -> 1.0/0.68/0.80 (best tradeoff), 1day -> 2.0/0.94/0.96 (overprovisions)."
