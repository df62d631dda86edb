(* Bechamel micro-benchmarks of the computational kernels behind each
   paper exhibit: the per-video block kernels of every EPF pass (pricing
   a block as a UFL instance, the UFL heuristics, turning a solution into
   an engine point, the sparse step update), the dual-ascent bound, the
   dense simplex on two small full placement LPs, the cache fleet's serve
   path and two trace analytics. *)

open Bechamel
open Toolkit

let block_fixture () =
  let graph = Vod_topology.Topologies.ring_plus_chords ~name:"m" ~n:55 ~target_edges:76 ~seed:1 in
  let sc =
    Vod_core.Scenario.make ~days:7 ~requests_per_video_per_day:6.0 ~seed:9 ~graph
      ~n_videos:200 ()
  in
  let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:2.0 in
  let inst =
    Vod_placement.Instance.create ~graph ~catalog:sc.Vod_core.Scenario.catalog ~demand
      ~disk_gb:disk
      ~link_capacity_mbps:(Vod_placement.Instance.uniform_links graph 1000.0)
      ()
  in
  let blocks = Vod_placement.Blocks.build_blocks inst in
  (* The busiest block: the representative per-pass workload. *)
  let busiest =
    Array.fold_left
      (fun (best : Vod_placement.Blocks.block) b ->
        if Array.length b.Vod_placement.Blocks.clients
           > Array.length best.Vod_placement.Blocks.clients
        then b
        else best)
      blocks.(0) blocks
  in
  (* Most blocks of a real week are tiny: over half of a 4,000-video
     backbone55 week has no client at all. A no-client and a one-client
     block (same video, demand cut down) time that end of the range. *)
  let with_clients k =
    {
      busiest with
      Vod_placement.Blocks.clients =
        Array.sub busiest.Vod_placement.Blocks.clients 0 k;
    }
  in
  let prices = Array.init (Vod_placement.Instance.n_rows inst) (fun i -> 0.01 *. float_of_int (1 + (i mod 7))) in
  (inst, busiest, with_clients 0, with_clients 1, prices, sc)

(* Full placement LPs ([Lp_check.build]) for the dense simplex: the
   4-VHO ring, 8-video instance the placement tests solve exactly, and
   Table III's 8-VHO reference network at 5 videos. *)
let simplex_fixtures () =
  let graph =
    Vod_topology.Graph.create ~name:"ring4" ~n:4
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
      ~populations:[| 4.0; 3.0; 2.0; 1.0 |]
  in
  let catalog =
    Vod_workload.Catalog.generate (Vod_workload.Catalog.default_params ~n:8 ~days:7 ~seed:11)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:graph.Vod_topology.Graph.populations ~mean_daily_requests:600.0
         ~seed:12)
  in
  let demand =
    Vod_workload.Demand.of_soa catalog ~n_vhos:4 ~day0:0 ~days:7 ~n_windows:2
      ~window_s:3600.0 trace ~lo:0 ~hi:(Vod_workload.Trace.length trace)
  in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  let tiny =
    Vod_placement.Instance.create ~graph ~catalog ~demand
      ~disk_gb:(Vod_placement.Instance.uniform_disk ~total_gb:(2.0 *. total) 4)
      ~link_capacity_mbps:(Vod_placement.Instance.uniform_links graph 200.0)
      ()
  in
  let ref8 = Exp_scaling.reference_instance (Exp_scaling.reference_network ()) 5 in
  (Vod_placement.Lp_check.build tiny, Vod_placement.Lp_check.build ref8)

let tests () =
  let inst, block, empty_block, one_block, prices, sc = block_fixture () in
  let tiny_lp, ref8_lp = simplex_fixtures () in
  let ufl_of b = Vod_placement.Blocks.ufl_of_block inst b ~obj_price:1.0 ~row_price:prices in
  let ufl = ufl_of block and ufl_empty = ufl_of empty_block and ufl_one = ufl_of one_block in
  let sol = Vod_facility.Ufl.greedy ufl and sol_one = Vod_facility.Ufl.greedy ufl_one in
  (* An EPF step's usage update, (1 - tau) z + tau zhat, between the
     busiest block's points at the synthetic and at zero prices. *)
  let z = (Vod_placement.Blocks.point_of_solution inst block sol).Vod_epf.Engine.usage in
  let zhat =
    let zero = Array.make (Array.length prices) 0.0 in
    let u = Vod_placement.Blocks.ufl_of_block inst block ~obj_price:1.0 ~row_price:zero in
    (Vod_placement.Blocks.point_of_solution inst block (Vod_facility.Ufl.greedy u))
      .Vod_epf.Engine.usage
  in
  let mk name f = Test.make ~name (Staged.stage f) in
  [
    (* Table III's inner loop: one block optimization — price the block,
       solve it, turn the solution into an engine point. *)
    mk "table3/ufl_of_block_55fac" (fun () -> ignore (ufl_of block));
    mk "table3/ufl_of_block_55fac_1cli" (fun () -> ignore (ufl_of one_block));
    mk "table3/ufl_greedy_55fac" (fun () ->
        ignore (Vod_facility.Ufl.greedy ufl));
    mk "table3/ufl_greedy_55fac_1cli" (fun () ->
        ignore (Vod_facility.Ufl.greedy ufl_one));
    mk "table3/point_of_solution_55fac" (fun () ->
        ignore (Vod_placement.Blocks.point_of_solution inst block sol));
    mk "table3/point_of_solution_55fac_1cli" (fun () ->
        ignore (Vod_placement.Blocks.point_of_solution inst one_block sol_one));
    mk "table3/sparse_axpby" (fun () -> ignore (Vod_epf.Sparse.axpby 0.7 z 0.3 zhat));
    mk "table3/ufl_local_search_55fac" (fun () ->
        ignore (Vod_facility.Ufl.local_search ufl));
    mk "table3/ufl_local_search_55fac_0cli" (fun () ->
        ignore (Vod_facility.Ufl.local_search ufl_empty));
    mk "table3/ufl_local_search_55fac_1cli" (fun () ->
        ignore (Vod_facility.Ufl.local_search ufl_one));
    (* The lower-bound pass kernel. *)
    mk "table3/ufl_dual_ascent_55fac" (fun () ->
        ignore (Vod_facility.Ufl.dual_ascent ufl));
    mk "table3/ufl_dual_ascent_55fac_1cli" (fun () ->
        ignore (Vod_facility.Ufl.dual_ascent ufl_one));
    (* Table III's reference side: one exact solve of the full LP. *)
    mk "table3/simplex_ring4_8videos" (fun () -> ignore (Vod_lp.Simplex.solve tiny_lp));
    mk "table3/simplex_ref8_5videos" (fun () -> ignore (Vod_lp.Simplex.solve ref8_lp));
    (* Figs. 5/6/10, Tables II/V/VI: the simulator's serve path. *)
    mk "fig5/fleet_serve" (fun () ->
        let fleet =
          Vod_cache.Fleet.random_single ~paths:sc.Vod_core.Scenario.paths
            ~catalog:sc.Vod_core.Scenario.catalog
            ~disk_gb:(Array.make 55 10.0) ~policy:Vod_cache.Cache.Lru ~seed:3
        in
        for v = 0 to 49 do
          ignore (Vod_cache.Fleet.serve fleet ~video:v ~vho:(v mod 55) ~now:(float_of_int v))
        done);
    (* Figs. 2/3: trace analytics kernels. *)
    mk "fig2/working_set" (fun () ->
        ignore
          (Vod_workload.Stats.working_set sc.Vod_core.Scenario.trace
             sc.Vod_core.Scenario.catalog ~vho:0 ~t0:0.0 ~t1:3600.0));
    mk "fig3/cosine_similarity" (fun () ->
        ignore
          (Vod_workload.Stats.peak_interval_similarity sc.Vod_core.Scenario.trace
             ~window_s:86_400.0));
  ]

let run () =
  Common.section "Bechamel micro-benchmarks (kernel costs behind the experiments)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"vodopt" ~fmt:"%s %s" (tests ())) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%.0f" e
        | Some [] | None -> "?"
      in
      rows := [ name; ns ] :: !rows)
    results;
  Vod_util.Table.print ~align:Vod_util.Table.Left
    ~header:[ "kernel"; "time per run (ns)" ]
    (List.sort (List.compare String.compare) !rows)
