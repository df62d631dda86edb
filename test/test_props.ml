(* Cross-module property tests (qcheck): topology generators, path
   symmetry, simplex-vs-EPF agreement already live in their module suites;
   this suite adds randomized structural properties that span modules. *)

module G = Vod_topology.Graph
module P = Vod_topology.Paths
module T = Vod_topology.Topologies

let prop_generated_graphs_connected =
  QCheck.Test.make ~name:"ring_plus_chords graphs are connected with exact counts"
    ~count:40
    QCheck.(pair (int_range 4 40) (int_range 0 30))
    (fun (n, extra) ->
      let max_edges = n * (n - 1) / 2 in
      let target = min max_edges (n + extra) in
      let g = T.ring_plus_chords ~name:"p" ~n ~target_edges:target ~seed:(n + extra) in
      G.is_connected g && G.n_links g = 2 * target)

let prop_hops_symmetric =
  QCheck.Test.make ~name:"hop counts are symmetric on undirected topologies"
    ~count:15 QCheck.(int_range 5 30)
    (fun n ->
      let g = T.ring_plus_chords ~name:"s" ~n ~target_edges:(n + 4) ~seed:n in
      let p = P.compute g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if P.hops p ~src:i ~dst:j <> P.hops p ~src:j ~dst:i then ok := false
        done
      done;
      !ok)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"shortest-path hops satisfy the triangle inequality"
    ~count:15 QCheck.(int_range 5 25)
    (fun n ->
      let g = T.ring_plus_chords ~name:"t" ~n ~target_edges:(n + 3) ~seed:(n * 3) in
      let p = P.compute g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if P.hops p ~src:i ~dst:j > P.hops p ~src:i ~dst:k + P.hops p ~src:k ~dst:j
            then ok := false
          done
        done
      done;
      !ok)

let prop_trace_deterministic =
  QCheck.Test.make ~name:"trace generation is deterministic in the seed" ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      let catalog =
        Vod_workload.Catalog.generate
          (Vod_workload.Catalog.default_params ~n:80 ~days:7 ~seed)
      in
      let pops = T.zipf_populations ~seed 6 in
      let mk () =
        Vod_workload.Tracegen.generate
          (Vod_workload.Tracegen.default_params ~catalog ~populations:pops
             ~mean_daily_requests:200.0 ~seed)
      in
      let a = mk () and b = mk () in
      let module Tr = Vod_workload.Trace in
      Tr.length a = Tr.length b
      && List.for_all
           (fun i ->
             Tr.time a i = Tr.time b i && Tr.video a i = Tr.video b i
             && Tr.vho a i = Tr.vho b i)
           (List.init (Tr.length a) Fun.id))

(* The engine's aggregate usage never undercounts: for random two-point
   block systems, the outcome's row_usage must equal the sum over combos
   within float tolerance (detects incremental-update drift). *)
let prop_engine_usage_conserved =
  QCheck.Test.make ~name:"engine row usage matches combo recomputation" ~count:10
    QCheck.(int_range 1 500)
    (fun seed ->
      let module E = Vod_epf.Engine in
      let module Sp = Vod_epf.Sparse in
      let rng = Vod_util.Rng.create seed in
      let k = 2 + Vod_util.Rng.int rng 6 in
      let m = 1 + Vod_util.Rng.int rng 3 in
      let mk _ =
        let pa =
          {
            E.obj = 1.0 +. Vod_util.Rng.float rng;
            usage = Sp.of_assoc [ (Vod_util.Rng.int rng m, 0.5 +. Vod_util.Rng.float rng) ];
            data = ();
          }
        in
        let pb =
          {
            E.obj = 2.0 +. Vod_util.Rng.float rng;
            usage = Sp.of_assoc [ (Vod_util.Rng.int rng m, 0.1 +. (0.2 *. Vod_util.Rng.float rng)) ];
            data = ();
          }
        in
        let priced ~obj_price ~row_price (p : unit E.point) =
          (obj_price *. p.E.obj) +. Sp.dot row_price p.E.usage
        in
        let optimize ~obj_price ~row_price =
          if priced ~obj_price ~row_price pa <= priced ~obj_price ~row_price pb
          then pa
          else pb
        in
        {
          E.optimize;
          optimize_strong = optimize;
          lower_bound =
            (fun ~row_price ->
              Float.min
                (priced ~obj_price:1.0 ~row_price pa)
                (priced ~obj_price:1.0 ~row_price pb));
          initial = (fun () -> pa);
        }
      in
      let oracles = Array.init k mk in
      let capacities = Array.init m (fun _ -> 0.5 +. (2.0 *. Vod_util.Rng.float rng)) in
      let outcome =
        E.solve ~round:false
          { E.default_params with E.max_passes = 25; seed }
          ~capacities ~oracles
      in
      let usage = Array.make m 0.0 in
      Array.iter
        (fun combo ->
          List.iter (fun ((p : unit E.point), w) -> Sp.add_into usage w p.E.usage) combo)
        outcome.E.combos;
      let ok = ref true in
      for i = 0 to m - 1 do
        if Float.abs (usage.(i) -. outcome.E.row_usage.(i)) > 1e-6 then ok := false
      done;
      !ok)

(* Solutions always place every video at least once, regardless of the
   (random) demand pattern. *)
let prop_every_video_placed =
  QCheck.Test.make ~name:"every video gets at least one copy" ~count:6
    QCheck.(int_range 1 100)
    (fun seed ->
      let graph =
        G.create ~name:"sq" ~n:4
          ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
          ~populations:[| 2.0; 1.0; 1.0; 1.0 |]
      in
      let catalog =
        Vod_workload.Catalog.generate
          (Vod_workload.Catalog.default_params ~n:12 ~days:7 ~seed)
      in
      let trace =
        Vod_workload.Tracegen.generate
          (Vod_workload.Tracegen.default_params ~catalog
             ~populations:graph.G.populations ~mean_daily_requests:120.0
             ~seed:(seed + 1))
      in
      let demand =
        Golden.week_demand catalog ~n_vhos:4 trace
      in
      let total = Vod_workload.Catalog.total_size_gb catalog in
      let inst =
        Vod_placement.Instance.create ~graph ~catalog ~demand
          ~disk_gb:(Vod_placement.Instance.uniform_disk ~total_gb:(2.5 *. total) 4)
          ~link_capacity_mbps:(Vod_placement.Instance.uniform_links graph 500.0)
          ()
      in
      let params =
        { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 25; seed }
      in
      let report = Vod_placement.Solve.solve ~params inst in
      let sol = report.Vod_placement.Solve.solution in
      let ok = ref true in
      for v = 0 to 11 do
        if Vod_placement.Solution.copies sol v < 1 then ok := false
      done;
      !ok)

(* Serving conservation under random fault timelines: whatever the
   outages, surges, link budget, origin and warm-up, every recorded
   request is served locally, served remotely or rejected for exactly
   one reason, and the event windows and per-VHO counters partition the
   recorded requests. *)
let serving_world = lazy (Golden.sim_world ())

let prop_faulted_serving_conserves =
  QCheck.Test.make ~name:"faulted serving conserves requests" ~count:25
    QCheck.(quad (int_range 1 10_000) (int_range 0 4) (int_range 0 2) bool)
    (fun (seed, budget, warmup_days, with_origin) ->
      let module M = Vod_sim.Metrics in
      let g, paths, catalog, trace = Lazy.force serving_world in
      let schedule =
        Vod_resil.Event.generate
          (Vod_resil.Event.default_gen_params ~n_vhos:(G.n_nodes g)
             ~n_links:(G.n_links g)
             ~horizon_s:(7.0 *. Vod_workload.Trace.seconds_per_day)
             ~seed)
      in
      let resil =
        Vod_resil.Playout.config ~schedule
          ~link_capacity_mbps:[| 8.0; 20.0; 60.0; 200.0; Float.infinity |].(budget)
          ?origin:(if with_origin then Some (seed mod G.n_nodes g) else None)
          ()
      in
      let m, windows =
        Vod_serve.Loop.run_soa ~graph:g ~paths ~catalog
          ~fleet:(Golden.lru_fleet paths catalog)
          ~store:trace
          ~record_from:
            (float_of_int warmup_days *. Vod_workload.Trace.seconds_per_day)
          ~resil ()
      in
      let d = m.M.deg in
      let sum = Array.fold_left ( + ) 0 in
      m.M.requests = m.M.local_served + m.M.remote_served + d.M.rejections
      && d.M.rejections
         = d.M.rejected_vho_down + d.M.rejected_no_replica
           + d.M.rejected_unreachable + d.M.rejected_no_capacity
      && m.M.requests
         = List.fold_left
             (fun acc (w : Vod_resil.Playout.window) ->
               acc + w.Vod_resil.Playout.requests)
             0 windows
      && m.M.requests = sum m.M.per_vho_requests)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_faulted_serving_conserves;
      prop_generated_graphs_connected;
      prop_hops_symmetric;
      prop_triangle_inequality;
      prop_trace_deterministic;
      prop_engine_usage_conserved;
      prop_every_video_placed;
    ]
