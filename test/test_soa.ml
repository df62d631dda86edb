(* Tests for the columnar request store (lib/workload Trace) and the
   serving loop over it: construction, generation and CSV round-trips
   against recordings of the boxed representation the store replaced,
   windowed-reader boundary cases, and byte-identical metrics against
   the recorded outputs of the boxed-array and columnar engines the loop
   replaced (test/golden/). *)

module M = Vod_sim.Metrics
module T = Vod_workload.Trace

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

let rows t = List.init (T.length t) (fun i -> (T.time t i, T.vho t i, T.video t i))

let check_rows_equal label a b =
  Alcotest.(check int) (label ^ ": length") (T.length a) (T.length b);
  Alcotest.(check bool) (label ^ ": rows bit-equal") true (rows a = rows b)

(* ---------- construction and generation ---------- *)

(* of_columns sorts shuffled rows back into the generated order (no
   tied times in this trace), and the row accessors and resident size
   agree with the columns. *)
let of_columns_sorts_rows () =
  let _, _, _, trace = sim_world () in
  let n = T.length trace in
  (* A fixed shuffle: row i moves to (7919 i) mod n, a permutation as
     long as the prime 7919 does not divide n. *)
  let perm = Array.make n 0 in
  Array.iteri (fun i _ -> perm.((7919 * i) mod n) <- i) perm;
  let col f = Array.map (fun i -> f trace i) perm in
  let rebuilt =
    T.of_columns ~n_vhos:trace.T.n_vhos ~days:trace.T.days ~times:(col T.time)
      ~vhos:(col T.vho) ~videos:(col T.video)
  in
  check_rows_equal "of_columns" trace rebuilt;
  Alcotest.(check int) "resident bytes = 16/row" (16 * n) (T.resident_bytes rebuilt)

(* The generator (and its former name, kept for bench/perf) emits
   exactly the rows the boxed generator did before the store became the
   only representation (test/golden/sim_world_trace.golden). *)
let generate_soa_matches_generate () =
  let p = tracegen_params () in
  Golden.check_text "sim_world_trace"
    (Golden.dump_trace (Vod_workload.Tracegen.generate p));
  Golden.check_text "sim_world_trace"
    (Golden.dump_trace (Vod_workload.Tracegen.generate_soa p))

(* Sharded generation is bit-identical at any job count. *)
let generate_soa_jobs_invariant () =
  let p = tracegen_params () in
  check_rows_equal "jobs 1 vs 3"
    (Vod_workload.Tracegen.generate ~jobs:1 p)
    (Vod_workload.Tracegen.generate_soa ~jobs:3 p)

(* CSV: save_csv / load_csv round-trips through the streaming loader
   (times quantized to the CSV's 1 ms), and a loaded trace saves to the
   same bytes. *)
let csv_roundtrip_soa () =
  let _, _, _, trace = sim_world () in
  let path = Filename.temp_file "vod_soa" ".csv" in
  let path2 = Filename.temp_file "vod_soa" ".csv" in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  Fun.protect
    ~finally:(fun () -> Sys.remove path; Sys.remove path2)
    (fun () ->
      Vod_workload.Trace_io.save_csv trace path;
      let loaded =
        Vod_workload.Trace_io.load_csv ~n_videos:30 ~n_vhos:trace.T.n_vhos
          ~days:trace.T.days path
      in
      Alcotest.(check int) "length" (T.length trace) (T.length loaded);
      let quantized =
        List.map
          (fun (t, vho, video) -> (float_of_string (Printf.sprintf "%.3f" t), vho, video))
          (rows trace)
      in
      Alcotest.(check bool) "rows = saved rows" true (rows loaded = quantized);
      Vod_workload.Trace_io.save_csv loaded path2;
      Alcotest.(check string) "saves the same bytes" (read path) (read path2))

(* ---------- windowed reader ---------- *)

(* between agrees with a linear scan, including an empty window and one
   spanning a day edge, and sub views exactly that row range. *)
let between_windows () =
  let _, _, _, trace = sim_world () in
  let first_at_or_after bound =
    let rec go i =
      if i < T.length trace && T.time trace i < bound then go (i + 1) else i
    in
    go 0
  in
  let check_range label ~t0_s ~t1_s =
    let lo, hi = T.between trace ~t0_s ~t1_s in
    Alcotest.(check (pair int int)) label
      (first_at_or_after t0_s, first_at_or_after t1_s)
      (lo, hi);
    let view = T.sub trace ~lo ~hi in
    Alcotest.(check bool) (label ^ ": sub") true
      (rows view = List.filteri (fun i _ -> i >= lo && i < hi) (rows trace)
      && view.T.days = trace.T.days && view.T.n_vhos = trace.T.n_vhos)
  in
  let day = T.seconds_per_day in
  check_range "empty window" ~t0_s:(2.0 *. day +. 0.25) ~t1_s:(2.0 *. day +. 0.25);
  check_range "day edge" ~t0_s:(1.5 *. day) ~t1_s:(2.5 *. day);
  check_range "full horizon" ~t0_s:0.0 ~t1_s:(7.0 *. day);
  check_range "before start" ~t0_s:(-10.0) ~t1_s:0.0;
  check_range "past end" ~t0_s:(7.0 *. day) ~t1_s:(8.0 *. day);
  for d = 0 to 6 do
    check_range
      (Printf.sprintf "day %d" d)
      ~t0_s:(float_of_int d *. day)
      ~t1_s:(float_of_int (d + 1) *. day)
  done

(* iter_windows tiles the store exactly: every row once, in order, no
   chunk larger than the window. *)
let iter_windows_tiling () =
  let _, _, _, trace = sim_world () in
  let n = T.length trace in
  List.iter
    (fun window ->
      let expected = ref 0 in
      T.iter_windows trace ~window ~f:(fun ~lo ~hi ->
          Alcotest.(check int) "chunks are contiguous" !expected lo;
          Alcotest.(check bool) "chunk non-empty" true (hi > lo);
          Alcotest.(check bool) "chunk within window" true (hi - lo <= window);
          expected := hi);
      Alcotest.(check int) "covers every row" n !expected)
    [ 1; 7; n; n + 100 ];
  (* Empty store: no calls. *)
  let empty =
    T.of_columns ~n_vhos:4 ~days:7 ~times:[||] ~vhos:[||] ~videos:[||]
  in
  T.iter_windows empty ~window:8 ~f:(fun ~lo:_ ~hi:_ ->
      Alcotest.fail "no windows expected on an empty store")

(* ---------- demand extraction ---------- *)

(* The one extractor reproduces what the boxed-request extractor it
   replaced computed on the same week
   (test/golden/demand_sim_world.golden). *)
let demand_of_soa_matches_of_requests () =
  let g, _, catalog, trace = sim_world () in
  let n_vhos = Vod_topology.Graph.n_nodes g in
  Golden.check_text "demand_sim_world"
    (Golden.dump_demand (Golden.week_demand catalog ~n_vhos trace))

(* ---------- serving loop ---------- *)

(* The loop over the store must reproduce the recorded
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
  Vod_serve.Loop.play_soa (engine ()) whole trace ~lo:0 ~hi:(T.length trace);
  let seg = fresh () in
  let engine2 = engine () in
  List.iter
    (fun (day_lo, day_hi) ->
      let lo, hi =
        T.between trace ~t0_s:(day_lo *. T.seconds_per_day)
          ~t1_s:(day_hi *. T.seconds_per_day)
      in
      Vod_serve.Loop.play_soa engine2 seg trace ~lo ~hi)
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
  let one ~time_s ~vho =
    T.of_columns ~n_vhos:4 ~days:7 ~times:[| time_s |] ~vhos:[| vho |] ~videos:[| 0 |]
  in
  Alcotest.check_raises "vho out of range"
    (Invalid_argument "Trace: vho 4 out of range [0, 4)") (fun () ->
      ignore (one ~time_s:1.0 ~vho:4));
  Alcotest.check_raises "nan time"
    (Invalid_argument "Trace: request time nan outside [0, 604800) s") (fun () ->
      ignore (one ~time_s:Float.nan ~vho:1));
  let b = T.Builder.create ~n_vhos:4 ~days:7 () in
  T.Builder.add b ~time_s:604800.0 ~vho:1 ~video:0;
  Alcotest.check_raises "time at the horizon"
    (Invalid_argument "Trace: request time 604800.000 outside [0, 604800) s")
    (fun () -> ignore (T.Builder.finish b));
  Alcotest.check_raises "bad range"
    (Invalid_argument "Trace.sub: range out of bounds")
    (fun () -> ignore (T.sub (one ~time_s:1.0 ~vho:1) ~lo:0 ~hi:2))

let suite =
  [
    Alcotest.test_case "of_columns = generated rows" `Quick (fun () ->
        of_columns_sorts_rows ());
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
