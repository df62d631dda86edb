(* Ablations of the solver's design choices (DESIGN.md):

   1. Randomized pass order (paper Appendix: reshuffling each pass cuts
      pass counts dramatically vs a fixed order).
   2. Warm-started block initialization (greedy-fill duals) vs cold
      single-copy starts.
   3. Rounding: potential-guided candidate choice vs always-fresh oracle.

   Each variant solves the same instance; we report passes to
   epsilon-feasibility, wall time, objective and violation. *)

let ablation_videos =
  match Common.scale with Quick -> 400 | Default -> 1200 | Full | Huge -> 3000

let instance () =
  let sc = Common.backbone_scenario ~n_videos:ablation_videos () in
  let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:2.0 in
  Vod_placement.Instance.create ~graph:sc.Vod_core.Scenario.graph
    ~catalog:sc.Vod_core.Scenario.catalog ~demand ~disk_gb:disk
    ~link_capacity_mbps:
      (Vod_placement.Instance.uniform_links sc.Vod_core.Scenario.graph 1000.0)
    ()

let solve_with ~shuffle ~warm_start inst =
  (* Engine called directly (bypassing Solve.solve, whose extraction we
     don't need): namespace its phase timers under ablation/. *)
  Vod_obs.Obs.phase "ablation" @@ fun () ->
  let params = { Common.solve_params with Vod_epf.Engine.shuffle } in
  let t0 = Unix.gettimeofday () in
  let _, oracles, _ = Vod_placement.Blocks.oracles ~warm_start inst in
  let outcome =
    Vod_epf.Engine.solve params ~capacities:(Vod_placement.Instance.capacities inst)
      ~oracles
  in
  let dt = Unix.gettimeofday () -. t0 in
  (outcome, dt)

let rec run () =
  Common.section "Ablation — randomized pass order and warm start";
  let inst = instance () in
  let variants =
    [
      ("shuffled + warm start (default)", true, true);
      ("fixed order + warm start", false, true);
      ("shuffled + cold start", true, false);
      ("fixed order + cold start", false, false);
    ]
  in
  let rows =
    List.map
      (fun (label, shuffle, warm_start) ->
        let outcome, dt = solve_with ~shuffle ~warm_start inst in
        [
          label;
          string_of_int outcome.Vod_epf.Engine.passes;
          Printf.sprintf "%.1f" dt;
          Printf.sprintf "%.0f" outcome.Vod_epf.Engine.objective;
          Common.fmt_pct outcome.Vod_epf.Engine.max_violation;
          Printf.sprintf "%.0f" outcome.Vod_epf.Engine.lower_bound;
        ])
      variants
  in
  Vod_util.Table.print
    ~header:[ "variant"; "passes"; "time (s)"; "objective"; "violation"; "lower bound" ]
    rows;
  Common.note
    "paper: reshuffling the block order each pass reduces pass counts by 40x vs any fixed order.";
  chunking_ablation ()

(* Sec. V-B's chunking remark, quantified: whole-video vs chunked
   placement on the same instance with small per-VHO disks. Chunking
   packs disks at finer granularity, so post-rounding violations drop and
   the objective can improve at tight capacities. *)
and chunking_ablation () =
  Common.section "Ablation — whole-video vs chunked placement (Sec. V-B)";
  let sc =
    Common.backbone_scenario ~n_videos:(ablation_videos / 2) ()
  in
  let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
  (* Tight disks: 1.3x the library, where packing granularity matters. *)
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:1.3 in
  let inst =
    Vod_placement.Instance.create ~graph:sc.Vod_core.Scenario.graph
      ~catalog:sc.Vod_core.Scenario.catalog ~demand ~disk_gb:disk
      ~link_capacity_mbps:
        (Vod_placement.Instance.uniform_links sc.Vod_core.Scenario.graph 2000.0)
      ()
  in
  let rows = ref [] in
  let record label (report : Vod_placement.Solve.report) seconds n_items =
    rows :=
      [
        label;
        string_of_int n_items;
        Printf.sprintf "%.0f" report.Vod_placement.Solve.solution.Vod_placement.Solution.objective;
        Common.fmt_pct report.Vod_placement.Solve.solution.Vod_placement.Solution.max_violation;
        Printf.sprintf "%.1f" seconds;
      ]
      :: !rows
  in
  let whole, whole_s =
    Common.timed (fun () -> Vod_placement.Solve.solve ~params:Common.solve_params inst)
  in
  record "whole videos" whole whole_s
    (Vod_workload.Catalog.n_videos sc.Vod_core.Scenario.catalog);
  List.iter
    (fun chunk_gb ->
      let t, chunked_inst = Vod_placement.Chunking.instance inst ~chunk_gb in
      let report, chunk_s =
        Common.timed (fun () ->
            Vod_placement.Solve.solve ~params:Common.solve_params chunked_inst)
      in
      record (Printf.sprintf "%.1f GB chunks" chunk_gb) report chunk_s
        (Vod_placement.Chunking.n_chunks t))
    [ 1.0; 0.5 ];
  Vod_util.Table.print
    ~header:[ "placement granularity"; "items"; "objective"; "violation"; "time (s)" ]
    (List.rev !rows);
  Common.note
    "expected: finer chunks reduce post-rounding disk violations at tight capacities, at higher solve cost."
