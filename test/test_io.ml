(* Tests for the I/O layer: trace CSV round-trip, placement CSV
   round-trip, and edge-list topology loading. *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let trace_roundtrip () =
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:30 ~days:7 ~seed:1)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:(Vod_topology.Topologies.zipf_populations ~seed:1 5)
         ~mean_daily_requests:200.0 ~seed:2)
  in
  let path = tmp "vodopt_trace_test.csv" in
  Vod_workload.Trace_io.save_csv trace path;
  let loaded = Vod_workload.Trace_io.load_csv ~n_vhos:5 ~days:7 path in
  Sys.remove path;
  let module T = Vod_workload.Trace in
  Alcotest.(check int) "same length" (T.length trace) (T.length loaded);
  for i = 0 to T.length trace - 1 do
    Alcotest.(check int) "vho" (T.vho trace i) (T.vho loaded i);
    Alcotest.(check int) "video" (T.video trace i) (T.video loaded i);
    Alcotest.(check bool) "time within 1ms" true
      (Float.abs (T.time trace i -. T.time loaded i) < 0.002)
  done

let trace_load_checks_video_bound () =
  let path = tmp "vodopt_trace_oob.csv" in
  let oc = open_out path in
  output_string oc "time_s,vho,video\n1.0,0,0\n2.0,1,7\n3.0,0,1\n";
  close_out oc;
  (* Without ~n_videos the loader accepts any nonnegative id (the
     historical behavior callers may rely on for foreign traces). *)
  let unbounded = Vod_workload.Trace_io.load_csv ~n_vhos:2 ~days:1 path in
  Alcotest.(check int) "unbounded load" 3 (Vod_workload.Trace.length unbounded);
  (* With a catalog bound, the out-of-range record is rejected with its
     line number. *)
  Alcotest.check_raises "out-of-range video"
    (Invalid_argument "Trace_io.load_csv: video id 7 out of range [0, 5) on line 3")
    (fun () ->
      ignore (Vod_workload.Trace_io.load_csv ~n_videos:5 ~n_vhos:2 ~days:1 path));
  (* A bound that covers every id loads cleanly. *)
  let bounded = Vod_workload.Trace_io.load_csv ~n_videos:8 ~n_vhos:2 ~days:1 path in
  Alcotest.(check int) "bounded load" 3 (Vod_workload.Trace.length bounded);
  Sys.remove path

let trace_load_rejects_garbage () =
  let path = tmp "vodopt_trace_bad.csv" in
  let oc = open_out path in
  output_string oc "time_s,vho,video\n1.0,0,0\nnot,a,record\n";
  close_out oc;
  Alcotest.check_raises "bad record"
    (Invalid_argument "Trace_io.load_csv: bad record on line 3") (fun () ->
      ignore (Vod_workload.Trace_io.load_csv ~n_vhos:2 ~days:1 path));
  Sys.remove path

(* Every row is checked as it is parsed, against the trace's VHO bound
   and horizon, and a rejected row names its line. A NaN time fails the
   horizon test too. *)
let trace_load_rejects_row ~row ~msg () =
  let path = tmp "vodopt_trace_row.csv" in
  let oc = open_out path in
  output_string oc ("time_s,vho,video\n1.0,0,0\n" ^ row ^ "\n3.0,1,0\n");
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.check_raises row (Invalid_argument ("Trace_io.load_csv: " ^ msg))
        (fun () -> ignore (Vod_workload.Trace_io.load_csv ~n_vhos:2 ~days:1 path)))

let solution_roundtrip () =
  (* Solve a tiny instance, save, load, and compare stored sets/routing. *)
  let graph =
    Vod_topology.Graph.create ~name:"ring4" ~n:4
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
      ~populations:[| 2.0; 1.0; 1.0; 1.0 |]
  in
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:10 ~days:7 ~seed:3)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:graph.Vod_topology.Graph.populations ~mean_daily_requests:150.0
         ~seed:4)
  in
  let demand = Golden.week_demand catalog ~n_vhos:4 trace in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  let inst =
    Vod_placement.Instance.create ~graph ~catalog ~demand
      ~disk_gb:(Vod_placement.Instance.uniform_disk ~total_gb:(2.0 *. total) 4)
      ~link_capacity_mbps:(Vod_placement.Instance.uniform_links graph 500.0)
      ()
  in
  let sol = (Vod_placement.Solve.solve inst).Vod_placement.Solve.solution in
  let path = tmp "vodopt_sol_test.csv" in
  Vod_placement.Solution_io.save_csv sol path;
  let loaded = Vod_placement.Solution_io.load_csv ~n_vhos:4 ~n_videos:10 path in
  Sys.remove path;
  for video = 0 to 9 do
    Alcotest.(check (array int)) "stored sets equal" sol.Vod_placement.Solution.stored.(video)
      loaded.Vod_placement.Solution.stored.(video);
    for vho = 0 to 3 do
      let paths = inst.Vod_placement.Instance.paths in
      Alcotest.(check int) "routing equal"
        (Vod_placement.Solution.server sol paths ~video ~vho)
        (Vod_placement.Solution.server loaded paths ~video ~vho)
    done
  done

let solution_load_requires_copies () =
  let path = tmp "vodopt_sol_bad.csv" in
  let oc = open_out path in
  output_string oc "kind,video,vho,server\nstore,0,1,\n";
  close_out oc;
  (* Video 1 has no copy. *)
  Alcotest.check_raises "missing copy"
    (Invalid_argument "Solution_io.load_csv: video 1 has no copy") (fun () ->
      ignore (Vod_placement.Solution_io.load_csv ~n_vhos:2 ~n_videos:2 path));
  Sys.remove path

let edge_list_loading () =
  let path = tmp "vodopt_topo.txt" in
  let oc = open_out path in
  output_string oc "# a comment\n0 1\n1 2\n2 0\n2 3  # chord\n1 2\n";
  close_out oc;
  let g = Vod_topology.Topologies.load_edge_list ~name:"t" ~path () in
  Sys.remove path;
  Alcotest.(check int) "nodes" 4 (Vod_topology.Graph.n_nodes g);
  (* Duplicate edge 1-2 dropped: 4 physical links. *)
  Alcotest.(check int) "links" 4 (Vod_topology.Graph.n_links g / 2);
  Alcotest.(check bool) "connected" true (Vod_topology.Graph.is_connected g)

let edge_list_with_populations () =
  let path = tmp "vodopt_topo2.txt" in
  let oc = open_out path in
  output_string oc "0 1\n1 2\n";
  close_out oc;
  let pop_path = tmp "vodopt_pops.txt" in
  let oc = open_out pop_path in
  output_string oc "3.0\n2.0\n1.0\n";
  close_out oc;
  let g =
    Vod_topology.Topologies.load_edge_list ~path ~populations_path:pop_path ()
  in
  Sys.remove path;
  Sys.remove pop_path;
  Alcotest.(check (float 1e-9)) "population loaded" 3.0
    g.Vod_topology.Graph.populations.(0)

let suite =
  [
    Alcotest.test_case "trace roundtrip" `Quick trace_roundtrip;
    Alcotest.test_case "trace rejects garbage" `Quick trace_load_rejects_garbage;
    Alcotest.test_case "trace video bound" `Quick trace_load_checks_video_bound;
    Alcotest.test_case "trace rejects nan time" `Quick
      (trace_load_rejects_row ~row:"nan,1,0"
         ~msg:"request time nan outside [0, 86400) s on line 3");
    Alcotest.test_case "trace rejects infinite time" `Quick
      (trace_load_rejects_row ~row:"inf,1,0"
         ~msg:"request time inf outside [0, 86400) s on line 3");
    Alcotest.test_case "trace rejects time past horizon" `Quick
      (trace_load_rejects_row ~row:"86400.5,1,0"
         ~msg:"request time 86400.500 outside [0, 86400) s on line 3");
    Alcotest.test_case "trace rejects vho out of range" `Quick
      (trace_load_rejects_row ~row:"2.0,2,0" ~msg:"vho 2 out of range [0, 2) on line 3");
    Alcotest.test_case "solution roundtrip" `Quick solution_roundtrip;
    Alcotest.test_case "solution requires copies" `Quick solution_load_requires_copies;
    Alcotest.test_case "edge list loading" `Quick edge_list_loading;
    Alcotest.test_case "edge list populations" `Quick edge_list_with_populations;
  ]
