(* Tests for chunked placement (paper Sec. V-B) and the LRFU cache policy
   (the paper's ref. [18] recency/frequency spectrum). *)

module Ch = Vod_placement.Chunking
module I = Vod_placement.Instance
module C = Vod_cache.Cache

let world () =
  let graph =
    Vod_topology.Graph.create ~name:"ring4" ~n:4
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
      ~populations:[| 3.0; 2.0; 1.0; 1.0 |]
  in
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:20 ~days:7 ~seed:21)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:graph.Vod_topology.Graph.populations ~mean_daily_requests:400.0
         ~seed:22)
  in
  let demand =
    Golden.week_demand catalog ~n_vhos:4 trace
  in
  (graph, catalog, demand)

let split_conserves_bytes () =
  let _, catalog, _ = world () in
  let t = Ch.split catalog ~chunk_gb:0.5 in
  Alcotest.(check (float 1e-6)) "total bytes preserved"
    (Vod_workload.Catalog.total_size_gb catalog)
    (Vod_workload.Catalog.total_size_gb t.Ch.chunked);
  (* Chunk counts match sizes: 2GB -> 4, 1GB -> 2, 0.5GB -> 1, 0.1GB -> 1. *)
  Array.iteri
    (fun video ids ->
      let s = Vod_workload.Video.size_gb (Vod_workload.Catalog.video catalog video) in
      let expected = max 1 (int_of_float (ceil ((s /. 0.5) -. 1e-9))) in
      Alcotest.(check int) "chunk count" expected (Array.length ids))
    t.Ch.chunks_of;
  (* parent_of inverts chunks_of. *)
  Array.iteri
    (fun parent ids ->
      Array.iter
        (fun chunk -> Alcotest.(check int) "parent_of" parent t.Ch.parent_of.(chunk))
        ids)
    t.Ch.chunks_of

let split_rejects_bad_chunk () =
  let _, catalog, _ = world () in
  Alcotest.check_raises "bad chunk size"
    (Invalid_argument "Chunking.split: chunk_gb must be one of 0.1, 0.5, 1.0, 2.0")
    (fun () -> ignore (Ch.split catalog ~chunk_gb:0.3))

let demand_conserves_load () =
  let _, catalog, demand = world () in
  let t = Ch.split catalog ~chunk_gb:0.5 in
  let d = Ch.demand t demand in
  Alcotest.(check int) "item count" (Ch.n_chunks t) d.Vod_workload.Demand.n_videos;
  (* Peak-window bandwidth-demand is conserved: sum over chunks of
     size * concurrency = parent's (each chunk carries f/count and sizes
     sum to the parent's). *)
  let window_load (dm : Vod_workload.Demand.t) (cat : Vod_workload.Catalog.t) w =
    let acc = ref 0.0 in
    Array.iteri
      (fun video pairs ->
        let r = Vod_workload.Video.rate_mbps (Vod_workload.Catalog.video cat video) in
        Array.iter (fun (_, c) -> acc := !acc +. (r *. c)) pairs)
      dm.Vod_workload.Demand.f.(w);
    !acc
  in
  (* Chunked per-window concurrency sums to the original across chunks,
     scaled by 1 (each chunk has f/count, count chunks). *)
  let orig = window_load demand catalog 0 in
  let chunked = window_load d t.Ch.chunked 0 in
  Alcotest.(check bool)
    (Printf.sprintf "window stream count conserved (%.1f vs %.1f)" orig chunked)
    true
    (Float.abs (orig -. chunked) <= 1e-6 *. Float.max 1.0 orig)

let chunked_solve_places_all () =
  let graph, catalog, demand = world () in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  let inst =
    I.create ~graph ~catalog ~demand
      ~disk_gb:(I.uniform_disk ~total_gb:(2.0 *. total) 4)
      ~link_capacity_mbps:(I.uniform_links graph 500.0)
      ()
  in
  let t, chunked_inst = Ch.instance inst ~chunk_gb:0.5 in
  let report = Vod_placement.Solve.solve chunked_inst in
  let sol = report.Vod_placement.Solve.solution in
  for parent = 0 to Vod_workload.Catalog.n_videos catalog - 1 do
    let full, total_chunks = Ch.parent_copies t sol parent in
    Alcotest.(check bool) "at least one full copy worth of chunks" true (full >= 1);
    Alcotest.(check bool) "chunk copies >= chunk count" true
      (total_chunks >= Array.length t.Ch.chunks_of.(parent))
  done

let chunking_packs_tighter () =
  (* With per-VHO disks smaller than the largest video, whole-video
     placement is infeasible while chunked placement can still fit
     (the point of Sec. V-B). *)
  let graph =
    Vod_topology.Graph.create ~name:"triangle" ~n:3
      ~edges:[ (0, 1); (1, 2); (2, 0) ]
      ~populations:[| 1.0; 1.0; 1.0 |]
  in
  (* Hand-build a tiny catalog: two 2GB movies (4 GB library). *)
  let videos =
    Array.init 2 (fun id ->
        {
          Vod_workload.Video.id;
          size_class = Vod_workload.Video.Long_movie;
          kind = Vod_workload.Video.Regular;
          release_day = 0;
          base_weight = 1.0;
        })
  in
  let catalog = { Vod_workload.Catalog.videos; n_series = 0; trace_days = 7 } in
  let demand =
    Golden.week_demand ~n_windows:1 catalog ~n_vhos:3
      (Vod_workload.Trace.of_columns ~n_vhos:3 ~days:7 ~times:[| 10.0 |] ~vhos:[| 0 |]
         ~videos:[| 0 |])
  in
  (* 1.5 GB per VHO (4.5 GB aggregate > 4 GB library), but no single VHO
     can hold a whole 2 GB movie. *)
  let inst =
    I.create ~graph ~catalog ~demand ~disk_gb:[| 1.5; 1.5; 1.5 |]
      ~link_capacity_mbps:(I.uniform_links graph 1000.0)
      ()
  in
  (* The LP relaxation is feasible either way (y may split fractionally);
     the difference appears after rounding: a whole 2 GB video cannot fit
     any 1.5 GB disk, so the integral whole-video solution must violate
     disk capacity by >= 1/3, while chunked placement rounds cleanly. *)
  let whole = Vod_placement.Solve.solve inst in
  Alcotest.(check bool) "whole-video rounding violates disks" true
    (whole.Vod_placement.Solve.solution.Vod_placement.Solution.max_violation >= 0.30);
  let _, chunked_inst = Ch.instance inst ~chunk_gb:0.5 in
  let chunked = Vod_placement.Solve.solve chunked_inst in
  Alcotest.(check bool) "chunked rounding fits" true
    (chunked.Vod_placement.Solve.solution.Vod_placement.Solution.max_violation <= 0.05)

(* --- LRFU --- *)

let lrfu_lambda_one_is_lru () =
  (* lambda = 1: any hit beats all older CRF mass; eviction = LRU. *)
  let c = C.create ~policy:(C.Lrfu 1.0) ~capacity_gb:2.0 in
  ignore (C.insert c 1 ~size_gb:1.0 ~now:0.0 ~busy_until:0.0);
  ignore (C.insert c 2 ~size_gb:1.0 ~now:1.0 ~busy_until:1.0);
  (* 1 is hit many times early, then 2 is hit once later. With lambda = 1
     the recent hit on 2 outweighs 1's decayed history. *)
  for _ = 1 to 5 do
    ignore (C.touch c 1 ~busy_until:0.0)
  done;
  ignore (C.touch c 2 ~busy_until:0.0);
  ignore (C.touch c 2 ~busy_until:0.0);
  ignore (C.touch c 2 ~busy_until:0.0);
  ignore (C.touch c 2 ~busy_until:0.0);
  let _, evicted = C.insert c 3 ~size_gb:1.0 ~now:10.0 ~busy_until:10.0 in
  Alcotest.(check (list int)) "evicts stale video" [ 1 ] evicted

let lrfu_small_lambda_is_lfu () =
  (* lambda near 0: frequency dominates recency. *)
  let c = C.create ~policy:(C.Lrfu 0.001) ~capacity_gb:2.0 in
  ignore (C.insert c 1 ~size_gb:1.0 ~now:0.0 ~busy_until:0.0);
  for _ = 1 to 5 do
    ignore (C.touch c 1 ~busy_until:0.0)
  done;
  ignore (C.insert c 2 ~size_gb:1.0 ~now:1.0 ~busy_until:1.0);
  ignore (C.touch c 2 ~busy_until:0.0);
  (* 2 is more recent but far less frequent: LFU-like eviction takes 2. *)
  let _, evicted = C.insert c 3 ~size_gb:1.0 ~now:10.0 ~busy_until:10.0 in
  Alcotest.(check (list int)) "evicts infrequent video" [ 2 ] evicted

let lrfu_validation () =
  Alcotest.check_raises "lambda range"
    (Invalid_argument "Cache.create: LRFU lambda must be in (0, 1]") (fun () ->
      ignore (C.create ~policy:(C.Lrfu 0.0) ~capacity_gb:1.0))

let lrfu_fleet_runs () =
  let graph, catalog, _ = world () in
  let paths = Vod_topology.Paths.compute graph in
  let fleet =
    Vod_cache.Fleet.random_single ~paths ~catalog ~disk_gb:[| 10.0; 10.0; 10.0; 10.0 |]
      ~policy:(C.Lrfu 0.5) ~seed:3
  in
  let o = Vod_cache.Fleet.serve fleet ~video:0 ~vho:1 ~now:0.0 in
  Alcotest.(check bool) "serves" true (o.Vod_cache.Fleet.server >= 0)

let suite =
  [
    Alcotest.test_case "split conserves bytes" `Quick split_conserves_bytes;
    Alcotest.test_case "split validation" `Quick split_rejects_bad_chunk;
    Alcotest.test_case "demand conserved" `Quick demand_conserves_load;
    Alcotest.test_case "chunked solve places all" `Quick chunked_solve_places_all;
    Alcotest.test_case "chunking packs tighter" `Quick chunking_packs_tighter;
    Alcotest.test_case "lrfu lambda=1 ~ lru" `Quick lrfu_lambda_one_is_lru;
    Alcotest.test_case "lrfu lambda->0 ~ lfu" `Quick lrfu_small_lambda_is_lfu;
    Alcotest.test_case "lrfu validation" `Quick lrfu_validation;
    Alcotest.test_case "lrfu fleet runs" `Quick lrfu_fleet_runs;
  ]
