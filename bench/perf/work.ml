(* The four workloads. Each prepares its inputs from the run's seed (the
   timed set-up) and returns an iteration closure: the timed calls into
   the layer under test, followed by the untimed playout and checks that
   turn their output into served-quality values. Every call into a
   library layer goes through [span], so the traced pass sees the same
   calls the untraced pass times. *)

module W = Vod_workload
module P = Vod_placement
module M = Vod_sim.Metrics

let jobs = 2
let span = Span.record

(* The catalog is the operator's slowly changing library, so it is held
   fixed; the seed varies the requests, the fault timeline and the cache
   fleet. Varying the library too moves a cold solve's rounded cost by up
   to 37% between seeds, which would swamp any regression bound. *)
let library_seed = 1
let sub_seed seed k = (1000 * seed) + k

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* [Stats_acc.percentile] of a list; 0 for an empty one. *)
let percentile p = function
  | [] -> 0.0
  | xs -> Vod_util.Stats_acc.percentile p (Array.of_list xs)

(* One iteration's outcome. [values] are deterministic for a given seed
   and must repeat exactly across iterations and between the untraced
   and traced passes; [timings] are wall-clock sub-measurements named
   after per-layer metrics. *)
type sample = {
  timed_s : float;
  values : (string * float) list;
  timings : (string * float) list;
  problems : string list;
}

type prepared = {
  iterate : traced:bool -> sample;
  inputs : (string * float) list;  (** input-size per-layer values *)
  micro : unit -> (string * float) list;  (** traced-pass-only kernel timings *)
}

type t = { name : string; prepare : seed:int -> prepared }

(* ---- inputs ------------------------------------------------------------ *)

let n_vhos graph = Vod_topology.Graph.n_nodes graph

let catalog ~n ~days =
  span "Catalog.generate" (fun () ->
      W.Catalog.generate (W.Catalog.default_params ~n ~days ~seed:library_seed))

let tracegen_params graph catalog ~mean_daily_requests ~seed =
  W.Tracegen.default_params ~catalog ~populations:graph.Vod_topology.Graph.populations
    ~mean_daily_requests ~seed

let store graph catalog ~mean_daily_requests ~seed =
  span "Tracegen.generate_soa" (fun () ->
      W.Tracegen.generate_soa ~jobs
        (tracegen_params graph catalog ~mean_daily_requests ~seed))

let paths graph = span "Paths.compute" (fun () -> Vod_topology.Paths.compute graph)

let disk graph catalog ~multiple =
  P.Instance.uniform_disk
    ~total_gb:(multiple *. W.Catalog.total_size_gb catalog)
    (n_vhos graph)

let store_inputs store =
  [
    ("workload.requests", float_of_int (W.Trace_soa.length store));
    ("workload.store_mb", float_of_int (W.Trace_soa.resident_bytes store) /. 1e6);
  ]

let engine passes = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = passes; jobs }

(* ---- outputs and checks ------------------------------------------------ *)

(* The busiest link's load per recorded 5-minute bin (Fig. 5's series). *)
let recorded_peaks (m : M.t) =
  let series = M.peak_series m in
  let first = min (Array.length series) (int_of_float (m.M.record_from /. m.M.bin_s)) in
  Array.to_list (Array.sub series first (Array.length series - first))

let serving ?(prefix = "") (m : M.t) =
  let d = m.M.deg in
  let peaks = recorded_peaks m in
  List.map
    (fun (k, v) -> (prefix ^ k, v))
    [
      ("transfer_gb_hops", m.M.total_gb_hops);
      ( "link_peak_mean_mbps",
        List.fold_left ( +. ) 0.0 peaks /. float_of_int (max 1 (List.length peaks)) );
      ("serve.local_fraction", M.local_fraction m);
      ("serve.link_p99_mbps", percentile 0.99 peaks);
      ("requests", float_of_int m.M.requests);
      ("rejections", float_of_int d.M.rejections);
      ("failovers", float_of_int d.M.failovers);
      ("cache_hits", float_of_int m.M.cache_hits);
    ]

let conservation label (m : M.t) =
  let served = m.M.local_served + m.M.remote_served + m.M.deg.M.rejections in
  if served = m.M.requests then []
  else
    [
      Printf.sprintf "%s: %d requests but %d local + %d remote + %d rejected" label
        m.M.requests m.M.local_served m.M.remote_served m.M.deg.M.rejections;
    ]

(* The rounded placement respects every disk row up to the violation the
   solver reports, stores every video at least once, and costs no less
   than its certified lower bound. *)
let placement_problems label (sol : P.Solution.t) ~catalog ~disk_gb =
  let used = P.Solution.disk_used sol catalog in
  let over =
    List.filter
      (fun v -> used.(v) > (disk_gb.(v) *. (1.0 +. sol.P.Solution.max_violation)) +. 1e-9)
      (List.init (Array.length used) Fun.id)
  in
  let uncopied =
    List.filter (fun v -> P.Solution.copies sol v < 1) (List.init sol.P.Solution.n_videos Fun.id)
  in
  List.concat
    [
      List.map (fun v -> Printf.sprintf "%s: disk row of VHO %d exceeded" label v) over;
      (if uncopied = [] then []
       else [ Printf.sprintf "%s: %d videos have no copy" label (List.length uncopied) ]);
      (if sol.P.Solution.lower_bound <= sol.P.Solution.objective then []
       else [ Printf.sprintf "%s: lower bound above rounded cost" label ]);
    ]

let solution_values (sol : P.Solution.t) =
  [
    ("placement.rounded_cost", sol.P.Solution.objective);
    ("placement.certified_gap", P.Solution.gap sol);
    ("placement.max_violation", sol.P.Solution.max_violation);
  ]

(* ---- solve-cold and solve-benders -------------------------------------- *)

(* Median per-call time of the UFL kernels behind every EPF pass, on the
   busiest block at bench/micro.ml's synthetic prices. *)
let facility inst =
  let blocks = P.Blocks.build_blocks inst in
  let clients (b : P.Blocks.block) = Array.length b.P.Blocks.clients in
  let busiest = Array.fold_left (fun b c -> if clients c > clients b then c else b) blocks.(0) blocks in
  let prices =
    Array.init (P.Instance.n_rows inst) (fun i -> 0.01 *. float_of_int (1 + (i mod 7)))
  in
  let ufl = P.Blocks.ufl_of_block inst busiest ~obj_price:1.0 ~row_price:prices in
  let per_call_us name f =
    span ("Ufl." ^ name) (fun () ->
        let batch k = snd (timed (fun () -> for _ = 1 to k do ignore (Sys.opaque_identity (f ufl)) done)) in
        let rec calibrate k = if k >= 1 lsl 20 || batch k >= 1e-3 then k else calibrate (2 * k) in
        let k = calibrate 1 in
        median (List.init 21 (fun _ -> batch k *. 1e6 /. float_of_int k)))
  in
  [
    ("facility.greedy_us", per_call_us "greedy" (fun u -> ignore (Vod_facility.Ufl.greedy u)));
    ( "facility.local_search_us",
      per_call_us "local_search" (fun u -> ignore (Vod_facility.Ufl.local_search u)) );
    ( "facility.dual_ascent_us",
      per_call_us "dual_ascent" (fun u -> ignore (Vod_facility.Ufl.dual_ascent u)) );
  ]

(* Values of several independent weeks: totals add up, the worst
   violation is kept, everything else is averaged. *)
let combine = function
  | [] -> []
  | first :: _ as weeks ->
      let n = float_of_int (List.length weeks) in
      List.map
        (fun (k, _) ->
          let vs = List.filter_map (List.assoc_opt k) weeks in
          let total = List.fold_left ( +. ) 0.0 vs in
          match k with
          | "placement.max_violation" -> (k, List.fold_left Float.max 0.0 vs)
          | "transfer_gb_hops" | "placement.rounded_cost" | "requests" | "rejections"
          | "failovers" | "cache_hits" | "workload.requests" | "workload.store_mb" ->
              (k, total)
          | _ -> (k, total /. n))
        first

(* [draws] independent weeks of a [graph] network over one library,
   demand from two one-hour peak windows. Timed: one cold [Solve.solve]
   per week with the named backend; untimed: each rounded placement
   served over its week. Solving several weeks per iteration averages
   out how much one draw of requests happens to cost the solver. *)
let solve_workload ~name ~graph ~videos ~daily_per_video ~draws ~disk_multiple ~link_mbps
    ~solver ~passes ~with_micro =
  let prepare ~seed =
    let graph = graph () in
    let catalog = catalog ~n:videos ~days:7 in
    let disk_gb = disk graph catalog ~multiple:disk_multiple in
    let week d =
      let store =
        store graph catalog
          ~mean_daily_requests:(daily_per_video *. float_of_int videos)
          ~seed:(sub_seed seed (1 + d))
      in
      let demand =
        span "Demand.of_soa" (fun () ->
            W.Demand.of_soa catalog ~n_vhos:(n_vhos graph) ~day0:0 ~days:7 ~n_windows:2
              ~window_s:3600.0 store ~lo:0 ~hi:(W.Trace_soa.length store))
      in
      let inst =
        span "Instance.create" (fun () ->
            P.Instance.create ~graph ~catalog ~demand ~disk_gb
              ~link_capacity_mbps:(P.Instance.uniform_links graph link_mbps)
              ())
      in
      (store, inst)
    in
    let weeks = List.init draws week in
    let paths = paths graph in
    let solve_week (store, inst) =
      let report, timed_s =
        timed (fun () ->
            span "Solve.solve" (fun () -> P.Solve.solve ~solver ~params:(engine passes) inst))
      in
      let sol = report.P.Solve.solution in
      let fleet =
        span "Fleet.mip" (fun () ->
            Vod_cache.Fleet.mip ~solution:sol ~paths ~catalog
              ~cache_gb:(Array.make (n_vhos graph) 0.0))
      in
      let m, _ =
        span "Loop.run_soa" (fun () -> Vod_serve.Loop.run_soa ~graph ~paths ~catalog ~fleet ~store ())
      in
      ( timed_s,
        (("passes", float_of_int report.P.Solve.passes) :: solution_values sol) @ serving m,
        placement_problems name sol ~catalog ~disk_gb @ conservation name m )
    in
    let iterate ~traced:_ =
      let results = List.map solve_week weeks in
      {
        timed_s = List.fold_left (fun a (t, _, _) -> a +. t) 0.0 results;
        values = combine (List.map (fun (_, v, _) -> v) results);
        timings = [];
        problems = List.concat_map (fun (_, _, p) -> p) results;
      }
    in
    {
      iterate;
      inputs = combine (List.map (fun (store, _) -> store_inputs store) weeks);
      micro = (fun () -> if with_micro then facility (snd (List.hd weeks)) else []);
    }
  in
  { name; prepare }

(* 4,000 videos at half a request per video per day: the long-tail regime
   of the million-video tier, small enough for several solves per run. *)
let solve_cold =
  solve_workload ~name:"solve-cold" ~graph:(fun () -> Vod_topology.Topologies.backbone55 ())
    ~videos:4000 ~daily_per_video:0.5 ~draws:1 ~disk_multiple:2.0 ~link_mbps:8.0
    ~solver:"epf" ~passes:10 ~with_micro:true

(* The master LP's cost varies by up to 75% between draws of requests,
   so each iteration solves eight small weeks. *)
let solve_benders =
  solve_workload ~name:"solve-benders" ~graph:(fun () -> Vod_topology.Topologies.ebone ())
    ~videos:50 ~daily_per_video:6.0 ~draws:8 ~disk_multiple:3.0 ~link_mbps:1000.0
    ~solver:"benders" ~passes:40 ~with_micro:false

(* ---- replan-daemon ----------------------------------------------------- *)

let daemon_days = 10

(* Bootstrap, 12 periodic 6-hour ticks over days 7-10, and the failure
   and repair instants of the outage. *)
let daemon_replans = 15
let outage_days = (7.3, 8.3)

let replan_daemon =
  let prepare ~seed =
    let graph = Vod_topology.Topologies.backbone55 () in
    let videos = 100 in
    let catalog = catalog ~n:videos ~days:daemon_days in
    let trace =
      span "Tracegen.generate" (fun () ->
          W.Tracegen.generate ~jobs
            (tracegen_params graph catalog
               ~mean_daily_requests:(4.0 *. float_of_int videos)
               ~seed:(sub_seed seed 1)))
    in
    let paths = paths graph in
    let spd = W.Trace.seconds_per_day in
    let dark = (Vod_topology.Topologies.top_population_nodes graph 1).(0) in
    let down_s, up_s = (fst outage_days *. spd, snd outage_days *. spd) in
    let schedule =
      Vod_resil.Event.create
        [
          { Vod_resil.Event.time_s = down_s; kind = Vod_resil.Event.Vho_down dark };
          { Vod_resil.Event.time_s = up_s; kind = Vod_resil.Event.Vho_up dark };
        ]
    in
    let resil = Vod_resil.Playout.config ~schedule ~link_capacity_mbps:225.0 () in
    let disk_gb = disk graph catalog ~multiple:2.0 in
    let problem =
      {
        Vod_serve.Replan.graph;
        catalog;
        disk_gb;
        link_capacity_mbps = 150.0;
        cache_frac = 0.05;
        n_windows = 2;
        window_s = 3600.0;
        engine = engine 10;
        solver = "epf";
      }
    in
    let cfg = { Vod_serve.Daemon.default_config with migration_budget_gb = 75.0 } in
    (* The pinned disk each replan solved against: the LRU share is
       carved out, and the dark VHO keeps (almost) nothing. *)
    let pinned_at t_s =
      Array.mapi
        (fun v d ->
          if v = dark && t_s >= down_s && t_s < up_s then Vod_serve.Replan.down_disk_gb
          else d *. (1.0 -. problem.Vod_serve.Replan.cache_frac))
        disk_gb
    in
    let iterate ~traced:_ =
      let res, timed_s =
        timed (fun () ->
            span "Daemon.run" (fun () ->
                Vod_serve.Daemon.run ~graph ~paths ~catalog ~trace ~problem ~resil
                  ~record_from:(3.0 *. spd) cfg))
      in
      let replans = res.Vod_serve.Daemon.replans in
      let sols = List.map (fun (r : Vod_serve.Daemon.replan) -> r.report.P.Solve.solution) replans in
      let mean f = List.fold_left (fun a s -> a +. f s) 0.0 sols /. float_of_int (List.length sols) in
      let m = res.Vod_serve.Daemon.metrics in
      {
        timed_s;
        values =
          [
            ("placement.rounded_cost", mean (fun s -> s.P.Solution.objective));
            ("placement.certified_gap", mean P.Solution.gap);
            ( "placement.max_violation",
              List.fold_left (fun a s -> Float.max a s.P.Solution.max_violation) 0.0 sols );
            ("serve.rejection_rate", M.rejection_rate m);
            ("serve.daemon.moved_gb", Vod_serve.Daemon.total_moved_gb res);
            ("deltas_applied", float_of_int (Vod_serve.Daemon.total_applied res));
            ("deltas_deferred", float_of_int (Vod_serve.Daemon.total_deferred res));
            ("replans", float_of_int (List.length replans));
          ]
          @ serving m;
        timings = [];
        problems =
          List.concat
            [
              (if List.length replans = daemon_replans then []
               else
                 [ Printf.sprintf "replan-daemon: %d replans, expected %d" (List.length replans) daemon_replans ]);
              List.concat_map
                (fun (r : Vod_serve.Daemon.replan) ->
                  placement_problems
                    (Printf.sprintf "replan-daemon %s@%.0fs" r.trigger r.t_s)
                    r.report.P.Solve.solution ~catalog ~disk_gb:(pinned_at r.t_s))
                replans;
              conservation "replan-daemon" m;
            ];
      }
    in
    {
      iterate;
      inputs = [ ("workload.requests", float_of_int (W.Trace.length trace)) ];
      micro = (fun () -> []);
    }
  in
  { name = "replan-daemon"; prepare }

(* ---- serve-faulted ----------------------------------------------------- *)

let serve_days = 14

(* Rows per [Loop.play_soa] call in the traced faulted play: about 170
   batches over the trace, enough for a p90 with ten samples above it. *)
let batch_rows = 4096

(* [Loop.run_soa] unrolled into [Loop.play_soa] slices, each timed. The
   metrics are created exactly as [run_soa] creates them, so the result
   must match the untraced play value for value. *)
let play_batched ~graph ~paths ~catalog ~fleet ~store ~resil =
  let metrics =
    M.create
      ~n_links:(Vod_topology.Graph.n_links graph)
      ~n_vhos:(n_vhos graph)
      ~horizon_s:(float_of_int store.W.Trace_soa.days *. W.Trace.seconds_per_day)
      ()
  in
  let loop = Vod_serve.Loop.create ~graph ~paths ~catalog ~fleet ~resil () in
  let batch_s = ref [] in
  Fun.protect
    ~finally:(fun () -> Vod_serve.Loop.finish loop metrics)
    (fun () ->
      W.Trace_soa.iter_windows store ~window:batch_rows ~f:(fun ~lo ~hi ->
          let (), dt =
            timed (fun () ->
                span "Loop.play_soa" (fun () -> Vod_serve.Loop.play_soa loop metrics store ~lo ~hi))
          in
          batch_s := dt :: !batch_s));
  (metrics, !batch_s)

let serve_faulted =
  let prepare ~seed =
    let graph = Vod_topology.Topologies.backbone55 () in
    let catalog = catalog ~n:5000 ~days:serve_days in
    let store = store graph catalog ~mean_daily_requests:50_000.0 ~seed:(sub_seed seed 1) in
    let paths = paths graph in
    let disk_gb = disk graph catalog ~multiple:2.0 in
    let schedule =
      span "Event.generate" (fun () ->
          Vod_resil.Event.generate
            (Vod_resil.Event.default_gen_params ~n_vhos:(n_vhos graph)
               ~n_links:(Vod_topology.Graph.n_links graph)
               ~horizon_s:(float_of_int serve_days *. W.Trace.seconds_per_day)
               ~seed:(sub_seed seed 2)))
    in
    let resil = Vod_resil.Playout.config ~schedule ~link_capacity_mbps:300.0 () in
    let fleet () =
      span "Fleet.random_single" (fun () ->
          Vod_cache.Fleet.random_single ~paths ~catalog ~disk_gb ~policy:Vod_cache.Cache.Lru
            ~seed:(sub_seed seed 3))
    in
    let requests = float_of_int (W.Trace_soa.length store) in
    let iterate ~traced =
      let fleet_direct = fleet () in
      let (direct, _), direct_s =
        timed (fun () ->
            span "Loop.run_soa" (fun () ->
                Vod_serve.Loop.run_soa ~graph ~paths ~catalog ~fleet:fleet_direct ~store ()))
      in
      let fleet_faulted = fleet () in
      let (faulted, batch_s), faulted_s =
        timed (fun () ->
            if traced then play_batched ~graph ~paths ~catalog ~fleet:fleet_faulted ~store ~resil
            else
              span "Loop.run_soa" (fun () ->
                  ( fst
                      (Vod_serve.Loop.run_soa ~graph ~paths ~catalog ~fleet:fleet_faulted ~store
                         ~resil ()),
                    [] )))
      in
      let d = faulted.M.deg in
      {
        timed_s = direct_s +. faulted_s;
        values =
          serving direct
          @ serving ~prefix:"faulted." faulted
          @ [
              ("serve.rejection_rate", M.rejection_rate faulted);
              ("faulted.no_capacity", float_of_int d.M.rejected_no_capacity);
              ("faulted.vho_down", float_of_int d.M.rejected_vho_down);
              ("faulted.unreachable", float_of_int d.M.rejected_unreachable);
              ("faulted.no_replica", float_of_int d.M.rejected_no_replica);
            ];
        timings =
          [
            ("serve.direct_play_s", direct_s);
            ("serve.faulted_play_s", faulted_s);
            ("serve.direct_mreq_s", requests /. direct_s /. 1e6);
            ("serve.faulted_mreq_s", requests /. faulted_s /. 1e6);
            ("resil.overhead_s", faulted_s -. direct_s);
          ]
          @ (if batch_s = [] then []
             else
               [
                 ("serve.batches", float_of_int (List.length batch_s));
                 ("serve.batch_p50_ms", 1e3 *. percentile 0.5 batch_s);
                 ("serve.batch_p90_ms", 1e3 *. percentile 0.9 batch_s);
               ]);
        problems =
          conservation "serve-faulted direct" direct
          @ conservation "serve-faulted faulted" faulted
          @
          if direct.M.deg.M.rejections = 0 then []
          else [ "serve-faulted: the direct play rejected requests" ];
      }
    in
    { iterate; inputs = store_inputs store; micro = (fun () -> []) }
  in
  { name = "serve-faulted"; prepare }

let all = [ solve_cold; solve_benders; replan_daemon; serve_faulted ]
