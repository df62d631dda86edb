(* Capacity-planning experiments built on the feasibility probe:

   Fig. 11  — the disk/bandwidth feasibility region: minimum aggregate
              disk (multiples of the library) vs uniform link capacity,
              for uniform and heterogeneous VHO disks.
   Table IV — minimum feasible link capacity per topology (backbone,
              tree, full mesh, Tiscali, Sprint, Ebone) at 3x disk.
   Fig. 13  — required link capacity (normalized per video) vs library
              size on the three RocketFuel-scale networks at 2x disk. *)

let feasibility_videos =
  match Common.scale with Quick -> 400 | Default -> 1000 | Full | Huge -> 2500

let fig11_region () =
  Common.section "Fig. 11 — feasibility region (min disk multiple vs link capacity)";
  let sc = Common.backbone_scenario ~n_videos:feasibility_videos () in
  let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
  let graph = sc.Vod_core.Scenario.graph in
  let catalog = sc.Vod_core.Scenario.catalog in
  (* Anchor the sweep at the capacity that is feasible with 2x uniform
     disk, then sweep factors of it. *)
  let anchor = Common.calibrate_link_capacity sc ~disk_multiple:2.0 in
  let caps = List.map (fun f -> f *. anchor) [ 0.6; 0.8; 1.0; 1.5; 2.5 ] in
  let n = Vod_topology.Graph.n_nodes graph in
  let lib = Vod_workload.Catalog.total_size_gb catalog in
  let probe disk_of cap =
    Vod_placement.Feasibility.min_disk_multiplier ~params:Common.probe_params
      ~lo:1.05 ~hi:10.0 ~tol:0.08 ~graph ~catalog ~demand ~link_capacity_mbps:cap
      ~disk_of ()
  in
  let uniform mult = Vod_placement.Instance.uniform_disk ~total_gb:(mult *. lib) n in
  let hetero mult = Vod_core.Scenario.hetero_disk sc ~multiple:mult in
  let rows =
    List.map
      (fun cap ->
        let u = probe uniform cap and h = probe hetero cap in
        let show = function Some m -> Printf.sprintf "%.2f" m | None -> ">10" in
        [ Printf.sprintf "%.0f" cap; show u; show h; "1.00" ])
      caps
  in
  Vod_util.Table.print
    ~header:[ "link cap (Mb/s)"; "uniform disk (x lib)"; "hetero disk (x lib)"; "lower bound" ]
    rows;
  Common.note
    "paper: at 0.5 Gb/s uniform needs ~5x, heterogeneous <3x; both converge to 1x as links grow."

let table4_topology () =
  Common.section "Table IV — topology vs minimum feasible link capacity (3x disk)";
  let sc = Common.backbone_scenario ~n_videos:feasibility_videos () in
  let backbone = sc.Vod_core.Scenario.graph in
  let topologies =
    [
      ("backbone (original)", backbone);
      ("backbone tree", Vod_topology.Topologies.tree_of backbone);
      ("backbone full mesh", Vod_topology.Topologies.full_mesh_of backbone);
      ("tiscali", Vod_topology.Topologies.tiscali ());
      ("sprint", Vod_topology.Topologies.sprint ());
      ("ebone", Vod_topology.Topologies.ebone ());
    ]
  in
  let rows =
    List.map
      (fun (name, graph) ->
        (* Map demand onto the (possibly smaller) node set: a scenario over
           this graph with population-proportional demand, as the paper
           maps the busiest VHOs onto RocketFuel nodes. *)
        let sc' =
          Vod_core.Scenario.make ~days:7
            ~requests_per_video_per_day:Common.requests_per_video_per_day ~seed:42
            ~graph ~n_videos:feasibility_videos ()
        in
        let demand = Vod_core.Scenario.demand_of_week sc' ~day0:0 in
        let disk = Vod_core.Scenario.uniform_disk sc' ~multiple:3.0 in
        let min_cap, dt =
          Common.timed (fun () ->
              Vod_placement.Feasibility.min_link_capacity
                ~params:Common.probe_params ~lo:10.0 ~hi:50_000.0 ~tol:0.1 ~graph
                ~catalog:sc'.Vod_core.Scenario.catalog ~demand ~disk_gb:disk ())
        in
        let shown = match min_cap with Some c -> Printf.sprintf "%.0f" c | None -> "?" in
        Common.note "  %s probed in %.1fs" name dt;
        [
          name;
          string_of_int (Vod_topology.Graph.n_nodes graph);
          string_of_int (Vod_topology.Graph.n_links graph / 2);
          shown;
        ])
      topologies
  in
  Vod_util.Table.print ~header:[ "topology"; "nodes"; "links"; "min link cap (Mb/s)" ] rows;
  Common.note
    "paper (Gb/s): original 0.8, tree 2.3, mesh 0.05, Tiscali 2.5, Sprint 0.6, Ebone 0.6 — more links means lower per-link capacity."

let fig13_library_growth () =
  Common.section "Fig. 13 — required link capacity vs library size (2x disk)";
  let sizes =
    match Common.scale with
    | Quick -> [ 300; 600 ]
    | Default -> [ 500; 1000; 2000 ]
    | Full | Huge -> [ 1000; 2000; 5000; 10_000 ]
  in
  let networks =
    [
      ("tiscali", Vod_topology.Topologies.tiscali ());
      ("sprint", Vod_topology.Topologies.sprint ());
      ("ebone", Vod_topology.Topologies.ebone ());
    ]
  in
  let rows =
    List.concat_map
      (fun (name, graph) ->
        List.map
          (fun n_videos ->
            let sc =
              Vod_core.Scenario.make ~days:7
                ~requests_per_video_per_day:Common.requests_per_video_per_day
                ~seed:42 ~graph ~n_videos ()
            in
            let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
            let disk = Vod_core.Scenario.uniform_disk sc ~multiple:2.0 in
            let cap =
              Vod_placement.Feasibility.min_link_capacity ~params:Common.probe_params
                ~lo:10.0 ~hi:100_000.0 ~tol:0.12 ~graph
                ~catalog:sc.Vod_core.Scenario.catalog ~demand ~disk_gb:disk ()
            in
            match cap with
            | Some c ->
                [
                  name;
                  string_of_int n_videos;
                  Printf.sprintf "%.0f" c;
                  Printf.sprintf "%.3f" (c /. float_of_int n_videos);
                ]
            | None -> [ name; string_of_int n_videos; "?"; "?" ])
          sizes)
      networks
  in
  Vod_util.Table.print
    ~header:[ "network"; "videos"; "min link cap (Mb/s)"; "cap per video" ]
    rows;
  Common.note
    "paper: normalized capacity stays ~flat as the library (and volume) grows; Tiscali needs the most."

let run () =
  fig11_region ();
  table4_topology ();
  fig13_library_growth ()
