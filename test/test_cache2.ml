(* Second round of cache/fleet tests: eviction edge cases, busy-stream
   extension, origin routing preferences, pinned accounting. *)

module C = Vod_cache.Cache
module FL = Vod_cache.Fleet

(* The current holders of a video, in the fleet's order. *)
let live f ~video = Array.to_list (Array.sub (FL.holders f ~video) 0 (FL.n_holders f ~video))

let touch_extends_lock () =
  let c = C.create ~policy:C.Lru ~capacity_gb:1.0 in
  ignore (C.insert c 1 ~size_gb:1.0 ~now:0.0 ~busy_until:10.0);
  (* A later hit extends the lock. *)
  ignore (C.touch c 1 ~busy_until:100.0);
  let inserted, _ = C.insert c 2 ~size_gb:1.0 ~now:50.0 ~busy_until:60.0 in
  Alcotest.(check bool) "still locked at t=50" false inserted;
  (* A hit with an earlier end must not shorten the lock. *)
  ignore (C.touch c 1 ~busy_until:20.0);
  let inserted, _ = C.insert c 2 ~size_gb:1.0 ~now:60.0 ~busy_until:70.0 in
  Alcotest.(check bool) "lock not shortened" false inserted

let multi_eviction_for_large_insert () =
  let c = C.create ~policy:C.Lru ~capacity_gb:3.0 in
  ignore (C.insert c 1 ~size_gb:1.0 ~now:0.0 ~busy_until:0.0);
  ignore (C.insert c 2 ~size_gb:1.0 ~now:1.0 ~busy_until:1.0);
  ignore (C.insert c 3 ~size_gb:1.0 ~now:2.0 ~busy_until:2.0);
  let inserted, evicted = C.insert c 4 ~size_gb:2.5 ~now:10.0 ~busy_until:10.0 in
  Alcotest.(check bool) "inserted" true inserted;
  Alcotest.(check int) "evicted three" 3 (List.length evicted);
  Alcotest.(check (float 1e-9)) "used" 2.5 (C.used_gb c)

let lfu_frequency_reset_on_reinsert () =
  let c = C.create ~policy:C.Lfu ~capacity_gb:2.0 in
  ignore (C.insert c 1 ~size_gb:1.0 ~now:0.0 ~busy_until:0.0);
  ignore (C.touch c 1 ~busy_until:0.0);
  ignore (C.touch c 1 ~busy_until:0.0);
  ignore (C.insert c 2 ~size_gb:1.0 ~now:1.0 ~busy_until:1.0);
  (* Evict 2 (freq 1), reinsert it: frequency must restart at 1, so video
     1 (freq 3) survives the next pressure round. *)
  let _, ev = C.insert c 3 ~size_gb:1.0 ~now:2.0 ~busy_until:2.0 in
  Alcotest.(check (list int)) "evicts low-frequency" [ 2 ] ev;
  let _, ev = C.insert c 2 ~size_gb:1.0 ~now:3.0 ~busy_until:3.0 in
  Alcotest.(check (list int)) "evicts 3 (fresh freq), not 1" [ 3 ] ev

let world () =
  let g =
    Vod_topology.Graph.create ~name:"line5" ~n:5
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4) ]
      ~populations:[| 5.0; 1.0; 1.0; 1.0; 1.0 |]
  in
  let paths = Vod_topology.Paths.compute g in
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:10 ~days:7 ~seed:4)
  in
  (g, paths, catalog)

let origin_prefers_closer_cached_copy () =
  let g, paths, catalog = world () in
  let fleet =
    FL.origin_regions ~regions:1 ~graph:g ~paths ~catalog
      ~disk_gb:[| 30.0; 30.0; 30.0; 30.0; 30.0 |]
  in
  (* Single region: the origin sits at the largest metro (node 0). A
     request at node 4 (4 hops from origin) fetches from the origin and
     caches locally; a subsequent request at node 3 should prefer node 4's
     cached copy (1 hop) over the origin (3 hops). *)
  let o1 = FL.serve fleet ~video:5 ~vho:4 ~now:0.0 in
  Alcotest.(check int) "first fetch from origin" 0 o1.FL.server;
  Alcotest.(check bool) "cached at 4" true o1.FL.inserted;
  let o2 = FL.serve fleet ~video:5 ~vho:3 ~now:10_000.0 in
  Alcotest.(check int) "second fetch from nearer cache" 4 o2.FL.server

let pinned_gb_matches_catalog () =
  let _, paths, catalog = world () in
  let fleet =
    FL.random_single ~paths ~catalog ~disk_gb:[| 30.0; 30.0; 30.0; 30.0; 30.0 |]
      ~policy:C.Lru ~seed:2
  in
  let total_pinned = Array.fold_left ( +. ) 0.0 (FL.pinned_gb fleet) in
  Alcotest.(check (float 1e-6)) "one copy of each video"
    (Vod_workload.Catalog.total_size_gb catalog)
    total_pinned

let serve_remote_locks_remote_copy () =
  let g, paths, catalog = world () in
  (* Caches sized for exactly one clip, so a second admission requires
     evicting the first. *)
  let fleet =
    FL.origin_regions ~regions:1 ~graph:g ~paths ~catalog
      ~disk_gb:[| 0.1; 0.1; 0.1; 0.1; 0.1 |]
  in
  let clip =
    Array.to_list catalog.Vod_workload.Catalog.videos
    |> List.find (fun v -> Vod_workload.Video.size_gb v <= 0.1)
  in
  let id = clip.Vod_workload.Video.id in
  let o1 = FL.serve fleet ~video:id ~vho:4 ~now:0.0 in
  Alcotest.(check bool) "cached" true o1.FL.inserted;
  (* Node 3 streams from node 4's cache: that copy is now busy, so node
     4's own next insert cannot evict it. *)
  let o2 = FL.serve fleet ~video:id ~vho:3 ~now:1.0 in
  Alcotest.(check int) "served from 4" 4 o2.FL.server;
  let other =
    Array.to_list catalog.Vod_workload.Catalog.videos
    |> List.find (fun v ->
           Vod_workload.Video.size_gb v <= 0.1 && v.Vod_workload.Video.id <> id)
  in
  let o3 = FL.serve fleet ~video:other.Vod_workload.Video.id ~vho:4 ~now:2.0 in
  Alcotest.(check bool) "not cachable while busy" true o3.FL.not_cachable

(* A miss at the local step changes nothing: the twin of a fleet that
   saw it holds the same replicas and serves the rest of the stream
   with the same outcomes. *)
let serve_local_miss_changes_nothing () =
  let _, paths, catalog = world () in
  let fleet () =
    FL.random_single ~paths ~catalog ~disk_gb:[| 4.0; 4.0; 4.0; 4.0; 4.0 |]
      ~policy:C.Lru ~seed:2
  in
  let a = fleet () and b = fleet () in
  let requests = List.init 40 (fun i -> ((7 * i) mod 10, (3 * i) mod 5)) in
  let play f rs =
    List.mapi (fun i (video, vho) -> FL.serve f ~video ~vho ~now:(float_of_int i)) rs
  in
  let warm = List.filteri (fun i _ -> i < 20) requests in
  ignore (play a warm);
  ignore (play b warm);
  let holders f = List.init 10 (fun video -> List.sort compare (live f ~video)) in
  let before = holders a in
  let miss =
    List.find
      (fun video -> not (List.mem 0 (live a ~video)))
      (List.init 10 Fun.id)
  in
  Alcotest.(check bool) "miss" true (FL.serve_local a ~video:miss ~vho:0 ~now:20.0 = None);
  Alcotest.(check (list (list int))) "holders unchanged" before (holders a);
  let rest = List.filteri (fun i _ -> i >= 20) requests in
  Alcotest.(check bool) "same outcomes afterwards" true (play a rest = play b rest)

(* [fetch] from a failover server (not the scheme's default) locks that
   server's cached copy until the new stream ends, past the end of the
   stream that cached it: the server's own admissions cannot evict the
   copy before then, and can once it ends. *)
let fetch_locks_remote_copy () =
  let g, paths, catalog = world () in
  let fleet =
    FL.origin_regions ~regions:1 ~graph:g ~paths ~catalog
      ~disk_gb:[| 0.1; 0.1; 0.1; 0.1; 0.1 |]
  in
  let clips =
    Array.to_list catalog.Vod_workload.Catalog.videos
    |> List.filter (fun v -> Vod_workload.Video.size_gb v <= 0.1)
  in
  let clip, other =
    match clips with
    | a :: b :: _ -> (a.Vod_workload.Video.id, b.Vod_workload.Video.id)
    | _ -> Alcotest.fail "need two clips under 0.1 GB"
  in
  let dur = Vod_workload.Video.duration_s (Vod_workload.Catalog.video catalog clip) in
  Alcotest.(check bool) "cached at 4" true (FL.serve fleet ~video:clip ~vho:4 ~now:0.0).FL.inserted;
  (* VHO 1's default is the origin at VHO 0, one hop away; stream from
     VHO 4's copy instead, starting 100 s later. *)
  Alcotest.(check int) "default is the origin" 0 (FL.default_server fleet ~video:clip ~vho:1);
  let o = FL.fetch fleet ~video:clip ~vho:1 ~now:100.0 ~server:4 in
  Alcotest.(check int) "served by 4" 4 o.FL.server;
  let at_4 () = List.mem 4 (live fleet ~video:clip) in
  let o = FL.serve fleet ~video:other ~vho:4 ~now:(dur +. 50.0) in
  Alcotest.(check bool) "locked copy skipped" true (o.FL.not_cachable && at_4 ());
  let o = FL.serve fleet ~video:other ~vho:4 ~now:(dur +. 100.0) in
  Alcotest.(check bool) "evicted once the stream ends" true (o.FL.inserted && not (at_4 ()))

let suite =
  [
    Alcotest.test_case "serve_local miss changes nothing" `Quick
      serve_local_miss_changes_nothing;
    Alcotest.test_case "fetch locks remote copy" `Quick fetch_locks_remote_copy;
    Alcotest.test_case "touch extends lock" `Quick touch_extends_lock;
    Alcotest.test_case "multi eviction" `Quick multi_eviction_for_large_insert;
    Alcotest.test_case "lfu reinsert frequency" `Quick lfu_frequency_reset_on_reinsert;
    Alcotest.test_case "origin prefers closer cache" `Quick origin_prefers_closer_cached_copy;
    Alcotest.test_case "pinned accounting" `Quick pinned_gb_matches_catalog;
    Alcotest.test_case "remote stream locks copy" `Quick serve_remote_locks_remote_copy;
  ]
