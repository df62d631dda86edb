(* Tests for the compact struct-of-arrays request store (lib/workload
   Trace_soa) and the serving loop over it: lossless round-trips against
   the boxed representation, windowed-reader boundary cases, and
   byte-identical metrics against the recorded outputs of the boxed-array
   and columnar engines the loop replaced (test/golden/). *)

module M = Vod_sim.Metrics
module T = Vod_workload.Trace
module S = Vod_workload.Trace_soa

let sim_world = Golden.sim_world

let tracegen_params () =
  let g = Golden.ring4 () in
  let catalog =
    Vod_workload.Catalog.generate
      (Vod_workload.Catalog.default_params ~n:30 ~days:7 ~seed:3)
  in
  Vod_workload.Tracegen.default_params ~catalog
    ~populations:g.Vod_topology.Graph.populations ~mean_daily_requests:400.0
    ~seed:4

let check_requests_equal label (a : T.request array) (b : T.request array) =
  Alcotest.(check int) (label ^ ": length") (Array.length a) (Array.length b);
  Alcotest.(check bool) (label ^ ": requests bit-equal") true (a = b)

(* ---------- round trips ---------- *)

(* of_trace / to_trace is lossless, row for row, on a real generated
   trace (tied times included: the same sort permutation applies). *)
let roundtrip_of_to_trace () =
  let _, _, _, trace = sim_world () in
  let soa = S.of_trace trace in
  Alcotest.(check int) "length" (T.length trace) (S.length soa);
  Alcotest.(check int) "n_vhos" trace.T.n_vhos soa.S.n_vhos;
  Alcotest.(check int) "days" trace.T.days soa.S.days;
  let back = S.to_trace soa in
  check_requests_equal "to_trace" trace.T.requests back.T.requests;
  (* Row accessors agree with the boxed records. *)
  Array.iteri
    (fun i (r : T.request) ->
      Alcotest.(check bool) "time bit-equal" true (S.time soa i = r.T.time_s);
      Alcotest.(check int) "vho" r.T.vho (S.vho soa i);
      Alcotest.(check int) "video" r.T.video (S.video soa i))
    trace.T.requests;
  Alcotest.(check int) "resident bytes = 16/row" (16 * T.length trace)
    (S.resident_bytes soa)

(* The SoA generator emits exactly the rows of the boxed generator. *)
let generate_soa_matches_generate () =
  let p = tracegen_params () in
  let boxed = S.of_trace (Vod_workload.Tracegen.generate p) in
  let soa = Vod_workload.Tracegen.generate_soa p in
  check_requests_equal "generate_soa"
    (S.window_requests boxed ~lo:0 ~hi:(S.length boxed))
    (S.window_requests soa ~lo:0 ~hi:(S.length soa))

(* Sharded generation is bit-identical at any job count and any staging
   window. *)
let generate_soa_jobs_invariant () =
  let p = tracegen_params () in
  let seq = Vod_workload.Tracegen.generate_soa ~jobs:1 p in
  let par = Vod_workload.Tracegen.generate_soa ~jobs:3 ~window_days:2 p in
  check_requests_equal "jobs 1 vs 3"
    (S.window_requests seq ~lo:0 ~hi:(S.length seq))
    (S.window_requests par ~lo:0 ~hi:(S.length par))

(* CSV: save_csv_soa / load_csv_soa round-trips through the streaming
   loader (times quantized to the CSV's 1 ms, as the boxed loader). *)
let csv_roundtrip_soa () =
  let _, _, _, trace = sim_world () in
  let soa = S.of_trace trace in
  let path = Filename.temp_file "vod_soa" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Vod_workload.Trace_io.save_csv_soa soa path;
      let loaded =
        Vod_workload.Trace_io.load_csv_soa ~n_videos:30
          ~n_vhos:trace.T.n_vhos ~days:trace.T.days path
      in
      Alcotest.(check int) "length" (S.length soa) (S.length loaded);
      (* Compare against the boxed loader: identical parse, identical
         sort. *)
      let boxed =
        Vod_workload.Trace_io.load_csv ~n_videos:30 ~n_vhos:trace.T.n_vhos
          ~days:trace.T.days path
      in
      check_requests_equal "csv"
        boxed.T.requests
        (S.window_requests loaded ~lo:0 ~hi:(S.length loaded)))

(* ---------- windowed reader ---------- *)

(* between agrees with the boxed binary search, including an empty
   window and one spanning a day edge. *)
let between_windows () =
  let _, _, _, trace = sim_world () in
  let soa = S.of_trace trace in
  let check_range label ~t0_s ~t1_s =
    let lo, hi = S.between soa ~t0_s ~t1_s in
    check_requests_equal label
      (T.between trace ~t0_s ~t1_s)
      (S.window_requests soa ~lo ~hi)
  in
  let day = T.seconds_per_day in
  check_range "empty window" ~t0_s:(2.0 *. day +. 0.25) ~t1_s:(2.0 *. day +. 0.25);
  check_range "day edge" ~t0_s:(1.5 *. day) ~t1_s:(2.5 *. day);
  check_range "full horizon" ~t0_s:0.0 ~t1_s:(7.0 *. day);
  check_range "before start" ~t0_s:(-10.0) ~t1_s:0.0;
  check_range "past end" ~t0_s:(7.0 *. day) ~t1_s:(8.0 *. day);
  (* Day-aligned windows match the boxed day slicing over every day
     edge. *)
  for d = 0 to 6 do
    let lo, hi =
      S.between soa ~t0_s:(float_of_int d *. day)
        ~t1_s:(float_of_int (d + 1) *. day)
    in
    check_requests_equal
      (Printf.sprintf "day %d" d)
      (T.between_days trace ~day_lo:d ~day_hi:(d + 1))
      (S.window_requests soa ~lo ~hi)
  done

(* iter_windows tiles the store exactly: every row once, in order, no
   chunk larger than the window. *)
let iter_windows_tiling () =
  let _, _, _, trace = sim_world () in
  let soa = S.of_trace trace in
  let n = S.length soa in
  List.iter
    (fun window ->
      let expected = ref 0 in
      S.iter_windows soa ~window ~f:(fun ~lo ~hi ->
          Alcotest.(check int) "chunks are contiguous" !expected lo;
          Alcotest.(check bool) "chunk non-empty" true (hi > lo);
          Alcotest.(check bool) "chunk within window" true (hi - lo <= window);
          expected := hi);
      Alcotest.(check int) "covers every row" n !expected)
    [ 1; 7; n; n + 100 ];
  (* Empty store: no calls. *)
  let empty =
    S.of_columns ~n_vhos:4 ~days:7 ~times:[||] ~vhos:[||] ~videos:[||]
  in
  S.iter_windows empty ~window:8 ~f:(fun ~lo:_ ~hi:_ ->
      Alcotest.fail "no windows expected on an empty store")

(* ---------- demand extraction ---------- *)

let demand_of_soa_matches_of_requests () =
  let g, _, catalog, trace = sim_world () in
  let n_vhos = Vod_topology.Graph.n_nodes g in
  let soa = S.of_trace trace in
  let lo, hi = S.between soa ~t0_s:0.0 ~t1_s:(7.0 *. T.seconds_per_day) in
  let from_soa =
    Vod_workload.Demand.of_soa catalog ~n_vhos ~day0:0 ~days:7 ~n_windows:2
      ~window_s:3600.0 soa ~lo ~hi
  in
  let from_requests =
    Vod_workload.Demand.of_requests catalog ~n_vhos ~day0:0 ~days:7
      ~n_windows:2 ~window_s:3600.0
      (T.between_days trace ~day_lo:0 ~day_hi:7)
  in
  Alcotest.(check bool) "demand models equal" true (from_soa = from_requests)

(* ---------- serving loop ---------- *)

(* The loop over the converted store must reproduce the recorded
   outputs of the boxed [run] it replaced and of both entry points
   (columnar and boxed) of the fixed-path (direct) and fault-injecting
   (faulted) engines (test/golden/). *)
let check_fixtures names (m, windows) =
  List.iter (fun name -> Golden.check name m windows) names

let direct () = Golden.run_loop ~record_from:T.seconds_per_day ()

let faulted () = Golden.run_loop ~resil:(Golden.faulted_config ()) ()

(* Segment-wise playout through play_soa (the daemon's pattern) is the
   whole-trace playout: ranges from between tile the store. *)
let play_soa_segments_match_whole () =
  let g, paths, catalog, trace = Golden.sim_world () in
  let soa = S.of_trace trace in
  let fresh () =
    M.create
      ~n_links:(Vod_topology.Graph.n_links g)
      ~n_vhos:(Vod_topology.Graph.n_nodes g)
      ~horizon_s:(7.0 *. T.seconds_per_day) ()
  in
  let engine () =
    Vod_serve.Loop.create ~graph:g ~paths ~catalog
      ~fleet:(Golden.lru_fleet paths catalog) ()
  in
  let whole = fresh () in
  Vod_serve.Loop.play_soa (engine ()) whole soa ~lo:0 ~hi:(S.length soa);
  let seg = fresh () in
  let engine2 = engine () in
  List.iter
    (fun (day_lo, day_hi) ->
      let lo, hi =
        S.between soa ~t0_s:(day_lo *. T.seconds_per_day)
          ~t1_s:(day_hi *. T.seconds_per_day)
      in
      Vod_serve.Loop.play_soa engine2 seg soa ~lo ~hi)
    [ (0.0, 2.0); (2.0, 3.3); (3.3, 7.0) ];
  Golden.check_equal "segmented = whole" whole seg

(* The pipeline, which now always plays through the store, reproduces
   the array-backed pipeline's recorded metrics for both an MIP scheme
   and a caching scheme. *)
let pipeline_matches_array_golden () =
  let cfg = Golden.pipeline_config () in
  List.iter
    (fun (name, scheme) ->
      let r = Vod_core.Pipeline.run cfg scheme in
      Golden.check name r.Vod_core.Pipeline.metrics
        r.Vod_core.Pipeline.resil_windows)
    [
      ("pipeline_mip", Vod_core.Pipeline.Mip Vod_core.Pipeline.default_mip);
      ("pipeline_random_lru", Vod_core.Pipeline.Random_cache Vod_cache.Cache.Lru);
    ]

(* ---------- validation ---------- *)

let rejects_bad_rows () =
  Alcotest.check_raises "vho out of range"
    (Invalid_argument "Trace_soa: vho out of range") (fun () ->
      ignore
        (S.of_columns ~n_vhos:4 ~days:7 ~times:[| 1.0 |] ~vhos:[| 4 |]
           ~videos:[| 0 |]));
  let soa =
    S.of_columns ~n_vhos:4 ~days:7 ~times:[| 1.0 |] ~vhos:[| 1 |]
      ~videos:[| 0 |]
  in
  Alcotest.check_raises "bad range"
    (Invalid_argument "Trace_soa.window_requests: range out of bounds")
    (fun () -> ignore (S.window_requests soa ~lo:0 ~hi:2))

let suite =
  [
    Alcotest.test_case "of_trace/to_trace round-trip" `Quick (fun () ->
        roundtrip_of_to_trace ());
    Alcotest.test_case "generate_soa = generate" `Quick (fun () ->
        generate_soa_matches_generate ());
    Alcotest.test_case "generate_soa jobs-invariant" `Quick (fun () ->
        generate_soa_jobs_invariant ());
    Alcotest.test_case "CSV round-trip (streaming)" `Quick (fun () ->
        csv_roundtrip_soa ());
    Alcotest.test_case "between: empty/day-edge windows" `Quick (fun () ->
        between_windows ());
    Alcotest.test_case "iter_windows tiles exactly" `Quick (fun () ->
        iter_windows_tiling ());
    Alcotest.test_case "Demand.of_soa = of_requests" `Quick (fun () ->
        demand_of_soa_matches_of_requests ());
    Alcotest.test_case "Loop.run_soa = Loop.run (direct)" `Quick (fun () ->
        check_fixtures [ "loop_run_direct" ] (direct ()));
    Alcotest.test_case "Loop.run_soa = Loop.run (faulted)" `Quick (fun () ->
        check_fixtures [ "loop_run_faulted" ] (faulted ()));
    Alcotest.test_case "Sim.run_soa = Sim.run" `Quick (fun () ->
        check_fixtures [ "sim_run_soa"; "sim_run" ] (direct ()));
    Alcotest.test_case "Playout.run_soa = Playout.run" `Quick (fun () ->
        check_fixtures [ "playout_run_soa"; "playout_run" ] (faulted ()));
    Alcotest.test_case "segmented play_soa = whole" `Quick (fun () ->
        play_soa_segments_match_whole ());
    Alcotest.test_case "Pipeline = array-backed golden" `Quick (fun () ->
        pipeline_matches_array_golden ());
    Alcotest.test_case "validation errors" `Quick (fun () ->
        rejects_bad_rows ());
  ]
