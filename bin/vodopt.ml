(* vodopt — command-line front end.

     vodopt stats     trace analytics (working set, similarity)
     vodopt solve     solve one placement instance and report quality
     vodopt simulate  replay a month against a distribution scheme
     vodopt serve     replay through the online re-placement daemon
     vodopt sweep     feasibility sweep: min disk per link capacity

   Every command is deterministic given --seed. *)

open Cmdliner

(* Wall-clock timing lives in the front end: Solve.report deliberately
   carries no wall time (lib/ is wallclock-free outside lib/obs). *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A flag value only its contents can judge (a malformed --trace or
   --topology-file, an origin or fault target outside the topology, an
   unreadable schedule) is still a command-line error naming its flag:
   [command] turns [Bad_flag] into cmdliner's usage exit (124). *)
exception Bad_flag of string

let bad_flag flag msg = raise (Bad_flag (Printf.sprintf "option '%s': %s" flag msg))

(* Every command's frame: logging, the default pool width, [Bad_flag]
   as a usage error, and --metrics PATH, which collects the side-band
   Obs registry over the whole command and exports it as sorted JSON
   ('-' = stdout) when done. *)
let command ~verbose ~jobs ~metrics f =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning);
  Vod_util.Pool.set_default_jobs jobs;
  let run () =
    match metrics with
    | None -> f ()
    | Some path ->
        let reg = Vod_obs.Obs.create () in
        Vod_obs.Obs.with_run reg f;
        Vod_obs.Obs.write_json reg path
  in
  match run () with () -> `Ok () | exception Bad_flag msg -> `Error (false, msg)

(* [load path], with a malformed or unreadable file (or a bad --faults
   spec) reported against [flag]. *)
let load_file flag load path =
  try load path with
  | Invalid_argument m -> bad_flag flag (path ^ ": " ^ m)
  | Sys_error m -> bad_flag flag m

(* Common options *)

(* The one converter for options that must be positive finite numbers:
   NaN fails the [> 0.] test and infinity [Float.is_finite]. *)
let positive =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0.0 -> Ok x
    | Some _ | None -> Error (Printf.sprintf "expected a positive finite number, got %S" s)
  in
  Arg.conv' (parse, Arg.conv_printer Arg.float)

(* The one converter for integer options: counts of at least [min], so
   a catalog, trace or pass budget is never empty (min 1) and a job
   count never negative (min 0). *)
let count ~min =
  let what = if min > 0 then "a positive" else "a non-negative" in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ | None -> Error (Printf.sprintf "expected %s integer, got %S" what s)
  in
  Arg.conv' (parse, Arg.conv_printer Arg.int)

let videos_t =
  Arg.(value & opt (count ~min:1) 1000 & info [ "videos"; "n" ] ~docv:"N" ~doc:"Catalog size.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let days_t =
  Arg.(value & opt (count ~min:1) 28 & info [ "days" ] ~docv:"D" ~doc:"Trace length in days.")

let rpv_t =
  Arg.(
    value
    & opt positive 8.0
    & info [ "requests-per-video" ] ~docv:"R"
        ~doc:"Mean daily requests per video (positive).")

let disk_t =
  Arg.(
    value
    & opt positive 2.0
    & info [ "disk" ] ~docv:"MULT"
        ~doc:"Aggregate disk as a multiple of the library size (positive).")

let link_t =
  Arg.(
    value
    & opt positive 1000.0
    & info [ "link" ] ~docv:"MBPS" ~doc:"Uniform link capacity in Mb/s (positive).")

let passes_t =
  Arg.(value & opt (count ~min:1) 50 & info [ "passes" ] ~docv:"P" ~doc:"Max EPF passes.")

let solver_t =
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) Vod_placement.Solve.solvers)) "epf"
    & info [ "solver" ] ~docv:"S"
        ~doc:
          "Placement solver: $(b,epf) (exponential-potential decomposition, default), $(b,benders) (stabilized cutting-plane master), $(b,simplex) (exact dense LP, small instances only).")

let verbose_t = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let jobs_t =
  Arg.(
    value
    & opt (count ~min:0) 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel phases (0 = number of cores). Results are identical at any job count for a fixed --seed.")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Collect side-band metrics (EPF convergence series, phase timings, cache and pool counters — see METRICS.md) and write them as sorted JSON to $(docv) ('-' = stdout).")

let topology_t =
  let topologies = [ "backbone"; "tiscali"; "sprint"; "ebone" ] in
  Arg.(
    value
    & opt (enum (List.map (fun t -> (t, t)) topologies)) "backbone"
    & info [ "topology" ] ~docv:"NET" ~doc:"Network: backbone, tiscali, sprint, ebone.")

let topology_file_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "topology-file" ] ~docv:"FILE"
        ~doc:"Load the network from an edge-list file instead of a built-in one.")

let trace_file_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "trace" ] ~docv:"CSV"
        ~doc:
          "Load requests from a CSV trace (time_s,vho,video) instead of generating a synthetic one. Video ids must fit the --videos catalog.")

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"CSV" ~doc:"Export the trace to a CSV file.")

let placement_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"CSV" ~doc:"Export the computed placement to a CSV file.")

let graph_of ~topology ~topology_file =
  match topology_file with
  | Some path ->
      load_file "--topology-file"
        (fun path -> Vod_topology.Topologies.load_edge_list ~name:path ~path ())
        path
  | None -> (
      match topology with
      | "tiscali" -> Vod_topology.Topologies.tiscali ()
      | "sprint" -> Vod_topology.Topologies.sprint ()
      | "ebone" -> Vod_topology.Topologies.ebone ()
      | _ -> Vod_topology.Topologies.backbone55 ())

(* With --trace, the loaded requests take the place of the synthetic
   trace; the catalog is the one the synthetic scenario would have, and
   --requests-per-video is unused. *)
let scenario_of ?topology_file ?trace_file ~topology ~videos ~days ~rpv ~seed
    () =
  let graph = graph_of ~topology ~topology_file in
  match trace_file with
  | None ->
      Vod_core.Scenario.make ~days ~requests_per_video_per_day:rpv ~seed ~graph
        ~n_videos:videos ()
  | Some path ->
      (* ~n_videos makes the loader reject out-of-catalog ids with a
         line-numbered error instead of a post-hoc scan. *)
      let trace =
        load_file "--trace"
          (Vod_workload.Trace_io.load_csv ~n_videos:videos
             ~n_vhos:(Vod_topology.Graph.n_nodes graph)
             ~days)
          path
      in
      Vod_core.Scenario.assemble ~graph
        ~catalog:(Vod_core.Scenario.catalog ~days ~seed ~n_videos:videos)
        trace

(* ---- stats ---- *)

let stats topology topology_file trace_file trace_out videos days rpv seed verbose jobs
    metrics =
  command ~verbose ~jobs ~metrics @@ fun () ->
  let sc = scenario_of ?topology_file ?trace_file ~topology ~videos ~days ~rpv ~seed () in
  Option.iter
    (fun path ->
      Vod_workload.Trace_io.save_csv sc.Vod_core.Scenario.trace path;
      Printf.printf "trace exported to %s\n" path)
    trace_out;
  let trace = sc.Vod_core.Scenario.trace in
  Printf.printf "trace: %d requests, %d days, %d VHOs, library %.0f GB\n\n"
    (Vod_workload.Trace.length trace) days
    (Vod_topology.Graph.n_nodes sc.Vod_core.Scenario.graph)
    (Vod_core.Scenario.library_gb sc);
  let peak = Vod_workload.Stats.peak_hour_start_s trace in
  Printf.printf "peak hour starts at day %.2f\n" (peak /. 86_400.0);
  let n = Vod_topology.Graph.n_nodes sc.Vod_core.Scenario.graph in
  let fracs =
    Array.init n (fun vho ->
        let _, gb =
          Vod_workload.Stats.working_set trace sc.Vod_core.Scenario.catalog ~vho
            ~t0:peak ~t1:(peak +. 3600.0)
        in
        gb /. Vod_core.Scenario.library_gb sc)
  in
  Printf.printf "peak-hour working set (disk share of library): max %.1f%%, mean %.1f%%\n"
    (100.0 *. Vod_util.Stats_acc.max_elt fracs)
    (100.0 *. Vod_util.Stats_acc.mean fracs);
  List.iter
    (fun (label, w) ->
      (* n/a: the peak falls in the first window, with none before it. *)
      Printf.printf "request-mix similarity @ %-7s mean %s\n" label
        (match Vod_workload.Stats.peak_interval_similarity trace ~window_s:w with
        | Some sims -> Printf.sprintf "%.3f" (Vod_util.Stats_acc.mean sims)
        | None -> "n/a"))
    [ ("30min", 1800.0); ("1h", 3600.0); ("1day", 86_400.0) ]

(* ---- solve ---- *)

let solve topology topology_file trace_file placement_out videos days rpv seed disk
    link passes solver verbose jobs metrics =
  command ~verbose ~jobs ~metrics @@ fun () ->
  let sc = scenario_of ?topology_file ?trace_file ~topology ~videos ~days ~rpv ~seed () in
  let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
  let inst =
    Vod_placement.Instance.create ~graph:sc.Vod_core.Scenario.graph
      ~catalog:sc.Vod_core.Scenario.catalog ~demand
      ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:disk)
      ~link_capacity_mbps:
        (Vod_placement.Instance.uniform_links sc.Vod_core.Scenario.graph link)
      ()
  in
  let params = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = passes } in
  let report, solve_s = timed (fun () -> Vod_placement.Solve.solve ~solver ~params inst) in
  let sol = report.Vod_placement.Solve.solution in
  Printf.printf "passes        %d\n" report.Vod_placement.Solve.passes;
  Printf.printf "time          %.2f s\n" solve_s;
  Printf.printf "LP objective  %.1f (violation %.2f%%)\n" report.Vod_placement.Solve.lp_objective
    (100.0 *. report.Vod_placement.Solve.lp_violation);
  Printf.printf "MIP objective %.1f (violation %.2f%%)\n" sol.Vod_placement.Solution.objective
    (100.0 *. sol.Vod_placement.Solution.max_violation);
  Printf.printf "lower bound   %.1f (gap %.1f%%)\n" sol.Vod_placement.Solution.lower_bound
    (100.0 *. Vod_placement.Solution.gap sol);
  let copies = Array.init videos (fun v -> Vod_placement.Solution.copies sol v) in
  let total = Array.fold_left ( + ) 0 copies in
  Printf.printf "copies        %d total (%.2f per video)\n" total
    (float_of_int total /. float_of_int videos);
  Option.iter
    (fun path ->
      Vod_placement.Solution_io.save_csv sol path;
      Printf.printf "placement exported to %s\n" path)
    placement_out

(* ---- simulate ---- *)

let scheme_t =
  let schemes = [ "mip"; "lru"; "lfu"; "topk"; "origin" ] in
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) schemes)) "mip"
    & info [ "scheme" ] ~docv:"S" ~doc:"Scheme: mip, lru, lfu, topk, origin.")

let faults_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Play out under a fault schedule: a CSV file (time_s,event,args — see DESIGN.md) or a canned scenario $(b,single-vho)[:VHO], $(b,correlated)[:VHO], $(b,flash-crowd)[:VHO] (default target: the largest metro).")

let playout_link_t =
  Arg.(
    value
    & opt (some positive) None
    & info [ "link-capacity" ] ~docv:"MBPS"
        ~doc:
          "Per-directed-link bandwidth budget enforced at playout time (positive; streams are admitted against residual capacity; default unlimited). Implies the failover-serving playout mode.")

let origin_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "origin" ] ~docv:"VHO"
        ~doc:"Last-resort origin server for failover routing (holds the full library).")

(* simulate and serve record only after the pipeline's warm-up, so a
   trace no longer than it would report nothing. Checked before any
   trace is generated. *)
let check_days days =
  let warmup = Vod_core.Pipeline.default_warmup_days in
  if days <= warmup then
    bad_flag "--days"
      (Printf.sprintf "%d days leave nothing to record after the %d-day warm-up" days
         warmup)

(* --faults SPEC: canned scenario name (optionally ":VHO") or a CSV path.
   Only a canned name reads a target after ':', so a path may contain
   one. *)
let schedule_of_spec sc spec =
  let n_vhos = Vod_topology.Graph.n_nodes sc.Vod_core.Scenario.graph in
  let name, target =
    match String.index_opt spec ':' with
    | Some i -> (String.sub spec 0 i, Some (String.sub spec (i + 1) (String.length spec - i - 1)))
    | None -> (spec, None)
  in
  let vho () =
    Option.map
      (fun v ->
        match int_of_string_opt v with
        | Some vho when vho >= 0 && vho < n_vhos -> vho
        | Some _ | None -> invalid_arg (Printf.sprintf "VHO %S is not in [0, %d)" v n_vhos))
      target
  in
  match name with
  | "single-vho" -> Vod_core.Scenario.single_vho_outage ?vho:(vho ()) sc
  | "correlated" -> Vod_core.Scenario.correlated_outage ?vho:(vho ()) sc
  | "flash-crowd" -> Vod_core.Scenario.flash_crowd ?vho:(vho ()) sc
  | _ ->
      Vod_resil.Event.load_csv ~n_vhos
        ~n_links:(Vod_topology.Graph.n_links sc.Vod_core.Scenario.graph)
        spec

(* --faults, --link-capacity and --origin: any of them switches playout
   to the serving loop's faulted configuration. Raises [Bad_flag] on a
   bad fault spec or origin. *)
let resil_of sc ~faults ~playout_link ~origin =
  let n_vhos = Vod_topology.Graph.n_nodes sc.Vod_core.Scenario.graph in
  (match origin with
  | Some o when o < 0 || o >= n_vhos ->
      bad_flag "--origin" (Printf.sprintf "VHO %d outside [0, %d)" o n_vhos)
  | Some _ | None -> ());
  match (faults, playout_link, origin) with
  | None, None, None -> None
  | _ ->
      let schedule =
        match faults with
        | None -> Vod_resil.Event.empty
        | Some spec -> load_file "--faults" (schedule_of_spec sc) spec
      in
      Some
        (Vod_resil.Playout.config ~schedule ?link_capacity_mbps:playout_link
           ?origin ())

let mip_of ~passes ~solver =
  {
    Vod_core.Pipeline.default_mip with
    Vod_core.Pipeline.engine =
      { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = passes };
    Vod_core.Pipeline.solver;
  }

let simulate topology topology_file trace_file videos days rpv seed disk link passes
    scheme solver faults playout_link origin verbose jobs metrics =
  command ~verbose ~jobs ~metrics @@ fun () ->
  check_days days;
  let sc = scenario_of ?topology_file ?trace_file ~topology ~videos ~days ~rpv ~seed () in
  let resil = resil_of sc ~faults ~playout_link ~origin in
  let cfg =
    {
      (Vod_core.Pipeline.default_config ~scenario:sc
         ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:disk)
         ~link_capacity_mbps:link)
      with
      Vod_core.Pipeline.resil;
    }
  in
  let scheme =
    match scheme with
    | "lru" -> Vod_core.Pipeline.Random_cache Vod_cache.Cache.Lru
    | "lfu" -> Vod_core.Pipeline.Random_cache Vod_cache.Cache.Lfu
    | "topk" -> Vod_core.Pipeline.Topk_lru 100
    | "origin" -> Vod_core.Pipeline.Origin_lru 4
    | _ -> Vod_core.Pipeline.Mip (mip_of ~passes ~solver)
  in
  let r = Vod_core.Pipeline.run cfg scheme in
  let m = r.Vod_core.Pipeline.metrics in
  Printf.printf "scheme           %s\n" r.Vod_core.Pipeline.scheme_name;
  Printf.printf "requests         %d\n" m.Vod_sim.Metrics.requests;
  Printf.printf "served locally   %.1f%%\n" (100.0 *. Vod_sim.Metrics.local_fraction m);
  Printf.printf "peak link        %.0f Mb/s\n" (Vod_sim.Metrics.max_link_mbps m);
  Printf.printf "peak aggregate   %.0f Mb/s\n" (Vod_sim.Metrics.max_aggregate_mbps m);
  Printf.printf "total transfer   %.0f GB x hop\n" m.Vod_sim.Metrics.total_gb_hops;
  Printf.printf "not cachable     %d\n" m.Vod_sim.Metrics.not_cachable;
  if resil <> None then begin
    let deg = m.Vod_sim.Metrics.deg in
    Printf.printf "rejections       %d (%.2f%% of requests)\n"
      deg.Vod_sim.Metrics.rejections
      (100.0 *. Vod_sim.Metrics.rejection_rate m);
    Printf.printf "  vho down       %d\n" deg.Vod_sim.Metrics.rejected_vho_down;
    Printf.printf "  no replica     %d\n" deg.Vod_sim.Metrics.rejected_no_replica;
    Printf.printf "  unreachable    %d\n" deg.Vod_sim.Metrics.rejected_unreachable;
    Printf.printf "  no capacity    %d\n" deg.Vod_sim.Metrics.rejected_no_capacity;
    Printf.printf "failovers        %d (+%d extra hops)\n"
      deg.Vod_sim.Metrics.failovers deg.Vod_sim.Metrics.failover_extra_hops;
    Printf.printf "origin served    %d\n" deg.Vod_sim.Metrics.origin_served;
    Printf.printf "link saturation  %.0f s\n" deg.Vod_sim.Metrics.link_saturated_s;
    Printf.printf "event windows    (day range: requests / rejections / failovers)\n";
    List.iter
      (fun (w : Vod_resil.Playout.window) ->
        Printf.printf "  %6.2f-%6.2f  %-24s %8d / %6d / %6d\n"
          (w.Vod_resil.Playout.t0_s /. 86_400.0)
          (w.Vod_resil.Playout.t1_s /. 86_400.0)
          w.Vod_resil.Playout.trigger w.Vod_resil.Playout.requests
          w.Vod_resil.Playout.rejections w.Vod_resil.Playout.failovers)
      r.Vod_core.Pipeline.resil_windows
  end;
  List.iter
    (fun (transfers, gb) ->
      Printf.printf "placement update: %d videos moved (%.0f GB)\n" transfers gb)
    r.Vod_core.Pipeline.migrations

(* ---- serve ---- *)

let update_hours_t =
  Arg.(
    value
    & opt positive 6.0
    & info [ "update-hours" ] ~docv:"H"
        ~doc:"Replan cadence of the online daemon in hours (positive).")

let budget_t =
  Arg.(
    value
    & opt (some positive) None
    & info [ "budget" ] ~docv:"GB"
        ~doc:
          "Per-replan migration budget in GB (positive); deltas beyond it are deferred to later replans (default: unrestricted).")

let cold_start_t =
  Arg.(
    value & flag
    & info [ "cold-start" ]
        ~doc:"Solve each replan from scratch instead of warm-starting from the incumbent placement.")

let no_fault_react_t =
  Arg.(
    value & flag
    & info [ "no-fault-react" ]
        ~doc:"Replan only on the periodic cadence, ignoring fault/repair events.")

let serve topology topology_file trace_file videos days rpv seed disk link passes
    solver faults playout_link origin update_hours budget cold_start no_fault_react
    verbose jobs metrics =
  command ~verbose ~jobs ~metrics @@ fun () ->
  check_days days;
  let sc = scenario_of ?topology_file ?trace_file ~topology ~videos ~days ~rpv ~seed () in
  let resil = resil_of sc ~faults ~playout_link ~origin in
  let cfg =
    Vod_core.Pipeline.default_config ~scenario:sc
      ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:disk)
      ~link_capacity_mbps:link
  in
  let daemon_cfg =
    {
      Vod_serve.Daemon.default_config with
      Vod_serve.Daemon.update_every_s = update_hours *. 3600.0;
      Vod_serve.Daemon.migration_budget_gb =
        (match budget with Some gb -> gb | None -> infinity);
      Vod_serve.Daemon.warm_start = not cold_start;
      Vod_serve.Daemon.react_to_faults = not no_fault_react;
    }
  in
  let r =
    Vod_serve.Daemon.run ~graph:sc.Vod_core.Scenario.graph
      ~paths:sc.Vod_core.Scenario.paths ~catalog:sc.Vod_core.Scenario.catalog
      ~trace:sc.Vod_core.Scenario.trace
      ~problem:(Vod_core.Pipeline.replan_problem cfg (mip_of ~passes ~solver))
      ?resil
      ~record_from:
        (float_of_int cfg.Vod_core.Pipeline.warmup_days
        *. Vod_workload.Trace.seconds_per_day)
      daemon_cfg
  in
  let m = r.Vod_serve.Daemon.metrics in
  Printf.printf "daemon           update every %.1f h, budget %s, %s, %s\n"
    update_hours
    (match budget with Some gb -> Printf.sprintf "%.0f GB" gb | None -> "unlimited")
    (if cold_start then "cold start" else "warm start")
    (if no_fault_react then "periodic only" else "fault-reactive");
  Printf.printf "requests         %d\n" m.Vod_sim.Metrics.requests;
  Printf.printf "served locally   %.1f%%\n" (100.0 *. Vod_sim.Metrics.local_fraction m);
  Printf.printf "peak link        %.0f Mb/s\n" (Vod_sim.Metrics.max_link_mbps m);
  Printf.printf "total transfer   %.0f GB x hop\n" m.Vod_sim.Metrics.total_gb_hops;
  Printf.printf "replans          %d (+1 bootstrap)\n"
    (List.length r.Vod_serve.Daemon.replans - 1);
  Printf.printf "deltas           %d applied / %d deferred, %.0f GB moved\n"
    (Vod_serve.Daemon.total_applied r)
    (Vod_serve.Daemon.total_deferred r)
    (Vod_serve.Daemon.total_moved_gb r);
  if resil <> None then begin
    let deg = m.Vod_sim.Metrics.deg in
    Printf.printf "rejections       %d (%.2f%% of requests)\n"
      deg.Vod_sim.Metrics.rejections
      (100.0 *. Vod_sim.Metrics.rejection_rate m);
    Printf.printf "failovers        %d (+%d extra hops)\n"
      deg.Vod_sim.Metrics.failovers deg.Vod_sim.Metrics.failover_extra_hops
  end;
  Printf.printf "replan log       (day: trigger, deltas applied/deferred, GB moved)\n";
  List.iter
    (fun (rp : Vod_serve.Daemon.replan) ->
      Printf.printf "  %6.2f  %-18s %5d / %5d  %8.0f GB\n"
        (rp.Vod_serve.Daemon.t_s /. 86_400.0)
        rp.Vod_serve.Daemon.trigger rp.Vod_serve.Daemon.applied
        rp.Vod_serve.Daemon.deferred rp.Vod_serve.Daemon.moved_gb)
    r.Vod_serve.Daemon.replans

(* ---- sweep ---- *)

let sweep topology topology_file videos days rpv seed link verbose jobs metrics =
  command ~verbose ~jobs ~metrics @@ fun () ->
  let sc = scenario_of ?topology_file ~topology ~videos ~days ~rpv ~seed () in
  let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
  let graph = sc.Vod_core.Scenario.graph in
  let lib = Vod_core.Scenario.library_gb sc in
  let n = Vod_topology.Graph.n_nodes graph in
  List.iter
    (fun factor ->
      let cap = factor *. link in
      let result =
        Vod_placement.Feasibility.min_disk_multiplier ~lo:1.05 ~hi:8.0 ~tol:0.08
          ~graph ~catalog:sc.Vod_core.Scenario.catalog ~demand
          ~link_capacity_mbps:cap
          ~disk_of:(fun m -> Vod_placement.Instance.uniform_disk ~total_gb:(m *. lib) n)
          ()
      in
      match result with
      | Some m -> Printf.printf "link %6.0f Mb/s -> min disk %.2f x library\n%!" cap m
      | None -> Printf.printf "link %6.0f Mb/s -> infeasible below 8 x library\n%!" cap)
    [ 0.5; 1.0; 2.0; 4.0 ]

(* ---- command wiring ---- *)

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Trace analytics (working set, request-mix similarity)")
    Term.(
      ret
        (const stats $ topology_t $ topology_file_t $ trace_file_t $ trace_out_t
        $ videos_t $ days_t $ rpv_t $ seed_t $ verbose_t $ jobs_t $ metrics_t))

let solve_cmd =
  Cmd.v (Cmd.info "solve" ~doc:"Solve one placement instance")
    Term.(
      ret
        (const solve $ topology_t $ topology_file_t $ trace_file_t $ placement_out_t
        $ videos_t $ days_t $ rpv_t $ seed_t $ disk_t $ link_t $ passes_t $ solver_t
        $ verbose_t $ jobs_t $ metrics_t))

let simulate_cmd =
  Cmd.v (Cmd.info "simulate" ~doc:"Replay the trace against a distribution scheme")
    Term.(
      ret
        (const simulate $ topology_t $ topology_file_t $ trace_file_t $ videos_t
        $ days_t $ rpv_t $ seed_t $ disk_t $ link_t $ passes_t $ scheme_t $ solver_t
        $ faults_t $ playout_link_t $ origin_t $ verbose_t $ jobs_t $ metrics_t))

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the trace through the online re-placement daemon (continuous replans under a migration budget)")
    Term.(
      ret
        (const serve $ topology_t $ topology_file_t $ trace_file_t $ videos_t
        $ days_t $ rpv_t $ seed_t $ disk_t $ link_t $ passes_t $ solver_t $ faults_t
        $ playout_link_t $ origin_t $ update_hours_t $ budget_t $ cold_start_t
        $ no_fault_react_t $ verbose_t $ jobs_t $ metrics_t))

let sweep_cmd =
  Cmd.v (Cmd.info "sweep" ~doc:"Feasibility sweep: min disk per link capacity")
    Term.(
      ret
        (const sweep $ topology_t $ topology_file_t $ videos_t $ days_t $ rpv_t
        $ seed_t $ link_t $ verbose_t $ jobs_t $ metrics_t))

let () =
  let info =
    Cmd.info "vodopt" ~version:"1.0.0"
      ~doc:"Optimal content placement for a large-scale VoD system (CoNEXT 2010 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info [ stats_cmd; solve_cmd; simulate_cmd; serve_cmd; sweep_cmd ]))
