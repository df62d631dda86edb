(* Capacity planning: explore the disk/bandwidth tradeoff of Sec. VII-C.
   For a growing link budget, find the minimum aggregate disk (in
   library-size multiples) at which every request can be served — the
   feasibility region of Fig. 11 — for both uniform and heterogeneous
   (large/medium/small) VHO disk splits.

     dune exec examples/capacity_planning.exe *)

let () =
  let sc = Vod_core.Scenario.backbone ~n_videos:500 ~days:7 ~seed:21 () in
  let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
  let graph = sc.Vod_core.Scenario.graph in
  let catalog = sc.Vod_core.Scenario.catalog in
  let lib = Vod_core.Scenario.library_gb sc in
  let n = Vod_topology.Graph.n_nodes graph in
  Printf.printf
    "planning for %d VHOs, %.0f GB library, %.0f weekly requests\n\n" n lib
    demand.Vod_workload.Demand.total_requests;
  let params =
    {
      Vod_placement.Feasibility.default_probe_params with
      Vod_epf.Engine.max_passes = 15;
    }
  in
  let probe ~disk_of cap =
    Vod_placement.Feasibility.min_disk_multiplier ~params ~lo:1.05 ~hi:8.0
      ~tol:0.08 ~graph ~catalog ~demand ~link_capacity_mbps:cap ~disk_of ()
  in
  let uniform mult = Vod_placement.Instance.uniform_disk ~total_gb:(mult *. lib) n in
  let hetero mult = Vod_core.Scenario.hetero_disk sc ~multiple:mult in
  let rows =
    List.map
      (fun cap ->
        let show = function
          | Some m -> Printf.sprintf "%.2f x library" m
          | None -> "> 8 x library"
        in
        [
          Printf.sprintf "%.0f Mb/s" cap;
          show (probe ~disk_of:uniform cap);
          show (probe ~disk_of:hetero cap);
        ])
      [ 100.0; 200.0; 400.0; 800.0; 1600.0 ]
  in
  Vod_util.Table.print
    ~header:[ "link capacity"; "uniform VHOs"; "hetero VHOs (4:2:1)" ]
    rows;
  print_newline ();
  print_endline
    "Reading the table: more bandwidth substitutes for disk; giving the big\n\
     metros more disk (heterogeneous split) serves the same demand with\n\
     less total storage — the paper's Fig. 11."
