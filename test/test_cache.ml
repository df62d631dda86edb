(* Tests for caches (LRU/LFU semantics, stream locking, admission
   failure), the replica oracle, and the fleet serving logic — including a
   qcheck model-equivalence test of LRU against a reference list model. *)

module C = Vod_cache.Cache
module RI = Vod_cache.Replica_index
module FL = Vod_cache.Fleet

let lru_eviction_order () =
  let c = C.create ~policy:C.Lru ~capacity_gb:2.0 in
  let ins v t = fst (C.insert c v ~size_gb:1.0 ~now:t ~busy_until:t) in
  Alcotest.(check bool) "insert 1" true (ins 1 0.0);
  Alcotest.(check bool) "insert 2" true (ins 2 1.0);
  (* Touch 1 so 2 becomes LRU. *)
  Alcotest.(check bool) "touch 1" true (C.touch c 1 ~busy_until:2.0);
  let inserted, evicted = C.insert c 3 ~size_gb:1.0 ~now:10.0 ~busy_until:10.0 in
  Alcotest.(check bool) "insert 3" true inserted;
  Alcotest.(check (list int)) "evicted LRU victim" [ 2 ] evicted;
  Alcotest.(check bool) "1 still cached" true (C.mem c 1)

let lfu_eviction_order () =
  let c = C.create ~policy:C.Lfu ~capacity_gb:2.0 in
  ignore (C.insert c 1 ~size_gb:1.0 ~now:0.0 ~busy_until:0.0);
  ignore (C.insert c 2 ~size_gb:1.0 ~now:1.0 ~busy_until:1.0);
  (* 1 gets two more hits; 2 stays at frequency 1. *)
  ignore (C.touch c 1 ~busy_until:0.0);
  ignore (C.touch c 1 ~busy_until:0.0);
  (* 2 is recent but less frequent: LFU evicts 2. *)
  ignore (C.touch c 2 ~busy_until:0.0);
  let _, evicted = C.insert c 3 ~size_gb:1.0 ~now:10.0 ~busy_until:10.0 in
  Alcotest.(check (list int)) "evicted LFU victim" [ 2 ] evicted

let stream_locking () =
  let c = C.create ~policy:C.Lru ~capacity_gb:1.0 in
  ignore (C.insert c 1 ~size_gb:1.0 ~now:0.0 ~busy_until:100.0);
  (* At t=50 the only entry is still streaming: not cachable. *)
  let inserted, evicted = C.insert c 2 ~size_gb:1.0 ~now:50.0 ~busy_until:60.0 in
  Alcotest.(check bool) "admission fails while busy" false inserted;
  Alcotest.(check (list int)) "nothing evicted" [] evicted;
  (* After the stream ends the entry is evictable. *)
  let inserted, evicted = C.insert c 2 ~size_gb:1.0 ~now:150.0 ~busy_until:160.0 in
  Alcotest.(check bool) "admission succeeds after" true inserted;
  Alcotest.(check (list int)) "old entry evicted" [ 1 ] evicted

let oversized_video () =
  let c = C.create ~policy:C.Lru ~capacity_gb:1.0 in
  let inserted, _ = C.insert c 1 ~size_gb:2.0 ~now:0.0 ~busy_until:0.0 in
  Alcotest.(check bool) "too big" false inserted

let cache_accounting () =
  let c = C.create ~policy:C.Lru ~capacity_gb:3.0 in
  ignore (C.insert c 1 ~size_gb:1.0 ~now:0.0 ~busy_until:0.0);
  ignore (C.insert c 2 ~size_gb:0.5 ~now:0.0 ~busy_until:0.0);
  Alcotest.(check (float 1e-9)) "used" 1.5 (C.used_gb c);
  Alcotest.(check int) "size" 2 (C.size c);
  (* Duplicate insert is a no-op. *)
  let inserted, evicted = C.insert c 1 ~size_gb:1.0 ~now:1.0 ~busy_until:1.0 in
  Alcotest.(check bool) "dup ok" true inserted;
  Alcotest.(check (list int)) "dup no evict" [] evicted;
  Alcotest.(check (float 1e-9)) "used unchanged" 1.5 (C.used_gb c)

(* LRU equivalence with a simple reference model (no stream locks, unit
   sizes): same hits and same final contents. *)
let prop_lru_model =
  QCheck.Test.make ~name:"LRU matches reference model" ~count:200
    QCheck.(list (int_bound 9))
    (fun accesses ->
      let cap = 3 in
      let c = C.create ~policy:C.Lru ~capacity_gb:(float_of_int cap) in
      (* Reference: list of videos, most recent first. *)
      let model = ref [] in
      let t = ref 0.0 in
      List.for_all
        (fun v ->
          t := !t +. 1.0;
          let model_hit = List.mem v !model in
          let cache_hit = C.touch c v ~busy_until:!t in
          if model_hit then model := v :: List.filter (fun x -> x <> v) !model
          else begin
            ignore (C.insert c v ~size_gb:1.0 ~now:!t ~busy_until:!t);
            model := v :: !model;
            if List.length !model > cap then
              model := List.filteri (fun i _ -> i < cap) !model
          end;
          model_hit = cache_hit)
        accesses
      &&
      (* Final contents agree. *)
      List.for_all (fun v -> C.mem c v) !model && C.size c = List.length !model)

let replica_index_ops () =
  let idx = RI.create ~n_videos:3 in
  RI.add idx ~video:0 ~vho:2;
  RI.add idx ~video:0 ~vho:2;
  Alcotest.(check (list int)) "idempotent add" [ 2 ] (RI.holders idx ~video:0);
  RI.add idx ~video:0 ~vho:1;
  Alcotest.(check bool) "holds" true (RI.holds idx ~video:0 ~vho:1);
  RI.remove idx ~video:0 ~vho:2;
  Alcotest.(check bool) "removed" false (RI.holds idx ~video:0 ~vho:2);
  Alcotest.(check (list int)) "empty video" [] (RI.holders idx ~video:1)

let nearest_replica () =
  let g =
    Vod_topology.Graph.create ~name:"line" ~n:4
      ~edges:[ (0, 1); (1, 2); (2, 3) ]
      ~populations:[| 1.0; 1.0; 1.0; 1.0 |]
  in
  let paths = Vod_topology.Paths.compute g in
  let idx = RI.create ~n_videos:1 in
  Alcotest.(check bool) "no replica" true (RI.nearest idx paths ~video:0 ~vho:0 = None);
  RI.add idx ~video:0 ~vho:3;
  RI.add idx ~video:0 ~vho:1;
  Alcotest.(check (option int)) "nearest is 1" (Some 1)
    (RI.nearest idx paths ~video:0 ~vho:0)

(* Equidistant holders resolve to the lowest VHO id, whatever order the
   replicas were registered in (failover routing relies on this being
   deterministic). *)
let nearest_tie_break () =
  let g =
    Vod_topology.Graph.create ~name:"line" ~n:4
      ~edges:[ (0, 1); (1, 2); (2, 3) ]
      ~populations:[| 1.0; 1.0; 1.0; 1.0 |]
  in
  let paths = Vod_topology.Paths.compute g in
  (* VHOs 0 and 2 are both one hop from VHO 1. *)
  List.iter
    (fun order ->
      let idx = RI.create ~n_videos:1 in
      List.iter (fun vho -> RI.add idx ~video:0 ~vho) order;
      Alcotest.(check (option int)) "lowest id wins the tie" (Some 0)
        (RI.nearest idx paths ~video:0 ~vho:1))
    [ [ 0; 2 ]; [ 2; 0 ] ];
  (* A strictly closer holder still beats a lower id. *)
  let idx = RI.create ~n_videos:1 in
  RI.add idx ~video:0 ~vho:0;
  RI.add idx ~video:0 ~vho:3;
  Alcotest.(check (option int)) "hops beat id" (Some 3)
    (RI.nearest idx paths ~video:0 ~vho:2)

(* A tiny fleet world shared by the fleet tests. *)
let fleet_world () =
  let g =
    Vod_topology.Graph.create ~name:"ring4" ~n:4
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
      ~populations:[| 2.0; 1.0; 1.0; 1.0 |]
  in
  let paths = Vod_topology.Paths.compute g in
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:20 ~days:7 ~seed:3)
  in
  (g, paths, catalog)

let fleet_random_basics () =
  let _, paths, catalog = fleet_world () in
  let fleet =
    FL.random_single ~paths ~catalog ~disk_gb:[| 10.0; 10.0; 10.0; 10.0 |]
      ~policy:C.Lru ~seed:5
  in
  (* Every video has a pinned copy somewhere. *)
  for video = 0 to 19 do
    let found = ref false in
    for vho = 0 to 3 do
      if FL.pinned_at fleet ~video ~vho then found := true
    done;
    Alcotest.(check bool) "pinned somewhere" true !found
  done;
  (* Serving is always possible and consistent. *)
  let o = FL.serve fleet ~video:0 ~vho:0 ~now:0.0 in
  Alcotest.(check bool) "served" true (o.FL.server >= 0 && o.FL.server < 4);
  if o.FL.local then Alcotest.(check int) "local serves from self" 0 o.FL.server

let fleet_cache_insertion () =
  let _, paths, catalog = fleet_world () in
  let fleet =
    FL.random_single ~paths ~catalog ~disk_gb:[| 30.0; 30.0; 30.0; 30.0 |]
      ~policy:C.Lru ~seed:5
  in
  (* Find a video not pinned at VHO 0; first request is remote, second is
     a cache hit. *)
  let video = ref (-1) in
  for v = 19 downto 0 do
    if not (FL.pinned_at fleet ~video:v ~vho:0) then video := v
  done;
  let o1 = FL.serve fleet ~video:!video ~vho:0 ~now:0.0 in
  Alcotest.(check bool) "first remote" false o1.FL.local;
  Alcotest.(check bool) "inserted" true o1.FL.inserted;
  let o2 = FL.serve fleet ~video:!video ~vho:0 ~now:10_000.0 in
  Alcotest.(check bool) "second local" true o2.FL.local;
  Alcotest.(check bool) "cache hit" true o2.FL.cache_hit

let fleet_topk () =
  let _, paths, catalog = fleet_world () in
  let ranked = Array.init 20 (fun i -> i) in
  let fleet =
    FL.topk ~k:3 ~ranked ~paths ~catalog ~disk_gb:[| 30.0; 30.0; 30.0; 30.0 |] ~seed:7
  in
  (* Top 3 pinned everywhere. *)
  for video = 0 to 2 do
    for vho = 0 to 3 do
      Alcotest.(check bool) "top pinned everywhere" true (FL.pinned_at fleet ~video ~vho)
    done
  done;
  let o = FL.serve fleet ~video:1 ~vho:2 ~now:0.0 in
  Alcotest.(check bool) "top video local" true o.FL.local

let fleet_origin () =
  let g, paths, catalog = fleet_world () in
  let fleet =
    FL.origin_regions ~regions:2 ~graph:g ~paths ~catalog
      ~disk_gb:[| 5.0; 5.0; 5.0; 5.0 |]
  in
  (* Origins hold everything: any request can be served. *)
  let o = FL.serve fleet ~video:7 ~vho:1 ~now:0.0 in
  Alcotest.(check bool) "origin serves" true (o.FL.server >= 0);
  (* pinned_gb counts the origins' full copies. *)
  let pg = FL.pinned_gb fleet in
  let full = Vod_workload.Catalog.total_size_gb catalog in
  let n_full = Array.fold_left (fun acc g -> if g >= full -. 1e-6 then acc + 1 else acc) 0 pg in
  Alcotest.(check int) "two full origins" 2 n_full

let fleet_mip_routing () =
  let g, paths, catalog = fleet_world () in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:g.Vod_topology.Graph.populations ~mean_daily_requests:300.0
         ~seed:8)
  in
  let demand =
    Golden.week_demand catalog ~n_vhos:4 trace
  in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  let inst =
    Vod_placement.Instance.create ~graph:g ~catalog ~demand
      ~disk_gb:(Vod_placement.Instance.uniform_disk ~total_gb:(2.0 *. total) 4)
      ~link_capacity_mbps:(Vod_placement.Instance.uniform_links g 500.0)
      ()
  in
  let report = Vod_placement.Solve.solve inst in
  let fleet =
    FL.mip ~solution:report.Vod_placement.Solve.solution ~paths ~catalog
      ~cache_gb:[| 1.0; 1.0; 1.0; 1.0 |]
  in
  (* Every request resolves; pinned copies match the solution. *)
  for video = 0 to 19 do
    for vho = 0 to 3 do
      let o = FL.serve fleet ~video ~vho ~now:0.0 in
      Alcotest.(check bool) "resolves" true (o.FL.server >= 0 && o.FL.server < 4);
      Alcotest.(check bool) "pinned iff stored"
        (Vod_placement.Solution.stores report.Vod_placement.Solve.solution ~video ~vho)
        (FL.pinned_at fleet ~video ~vho)
    done
  done

(* Regression for the eviction loop's Hashtbl.find -> find_opt
   conversion: victims are removed exactly once, the byte accounting
   stays consistent across multi-victim evictions, and a failed
   admission still reports the entries it freed along the way. *)
let eviction_path_accounting () =
  let c = Vod_cache.Cache.create ~policy:Vod_cache.Cache.Lru ~capacity_gb:3.0 in
  List.iter
    (fun v ->
      let inserted, evicted = Vod_cache.Cache.insert c v ~size_gb:1.0 ~now:0.0 ~busy_until:0.0 in
      Alcotest.(check bool) "initial insert fits" true inserted;
      Alcotest.(check (list int)) "no eviction while filling" [] evicted)
    [ 1; 2; 3 ];
  (* Needs 2 GB: must evict the two least-recently-used idle entries. *)
  let inserted, evicted = Vod_cache.Cache.insert c 4 ~size_gb:2.0 ~now:1.0 ~busy_until:0.0 in
  Alcotest.(check bool) "insert after eviction" true inserted;
  Alcotest.(check (list int)) "two LRU victims, once each" [ 2; 1 ] evicted;
  Alcotest.(check (float 1e-9)) "accounting exact" 3.0 (Vod_cache.Cache.used_gb c);
  Alcotest.(check int) "resident count" 2 (Vod_cache.Cache.size c);
  Alcotest.(check bool) "survivor present" true (Vod_cache.Cache.mem c 3);
  Alcotest.(check bool) "newcomer present" true (Vod_cache.Cache.mem c 4);
  (* All residents busy: admission fails, but idle space freed first is
     still reported (here: none, both entries are streaming). *)
  ignore (Vod_cache.Cache.touch c 3 ~busy_until:100.0);
  ignore (Vod_cache.Cache.touch c 4 ~busy_until:100.0);
  let inserted, evicted = Vod_cache.Cache.insert c 5 ~size_gb:1.0 ~now:2.0 ~busy_until:0.0 in
  Alcotest.(check bool) "no admission when all busy" false inserted;
  Alcotest.(check (list int)) "nothing evictable" [] evicted;
  Alcotest.(check (float 1e-9)) "accounting unchanged" 3.0 (Vod_cache.Cache.used_gb c)

let suite =
  [
    Alcotest.test_case "lru eviction order" `Quick lru_eviction_order;
    Alcotest.test_case "eviction path accounting" `Quick eviction_path_accounting;
    Alcotest.test_case "lfu eviction order" `Quick lfu_eviction_order;
    Alcotest.test_case "stream locking" `Quick stream_locking;
    Alcotest.test_case "oversized video" `Quick oversized_video;
    Alcotest.test_case "cache accounting" `Quick cache_accounting;
    Alcotest.test_case "replica index" `Quick replica_index_ops;
    Alcotest.test_case "nearest replica" `Quick nearest_replica;
    Alcotest.test_case "nearest tie-break" `Quick nearest_tie_break;
    Alcotest.test_case "fleet random basics" `Quick fleet_random_basics;
    Alcotest.test_case "fleet cache insertion" `Quick fleet_cache_insertion;
    Alcotest.test_case "fleet topk" `Quick fleet_topk;
    Alcotest.test_case "fleet origin" `Quick fleet_origin;
    Alcotest.test_case "fleet mip routing" `Slow fleet_mip_routing;
    QCheck_alcotest.to_alcotest prop_lru_model;
  ]
