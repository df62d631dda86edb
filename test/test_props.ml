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
          for q = 0 to Vod_epf.Combo.length combo - 1 do
            Sp.add_into usage (Vod_epf.Combo.weight combo q)
              (Vod_epf.Combo.point combo q).E.usage
          done)
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

(* A random small serving world: a ring_plus_chords topology of [n] VHOs,
   a 25-video catalog, a 3-day trace, and a fleet maker for random+LRU
   ([scheme] 0), random+LFU (1) or Top-3+LRU (2) on disks of 1.5-3x the
   library, which keep the caches evicting. *)
let random_world ~n ~seed ~scheme =
  let g = T.ring_plus_chords ~name:"w" ~n ~target_edges:(n + 2) ~seed in
  let paths = P.compute g in
  let catalog =
    Vod_workload.Catalog.generate
      (Vod_workload.Catalog.default_params ~n:25 ~days:3 ~seed)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog ~populations:g.G.populations
         ~mean_daily_requests:150.0 ~seed:(seed + 1))
  in
  let library = Vod_workload.Catalog.total_size_gb catalog in
  let disk_gb =
    Array.make n ((1.5 +. float_of_int (seed mod 4) *. 0.5) *. library /. float_of_int n)
  in
  let fleet () =
    match scheme with
    | 0 -> Vod_cache.Fleet.random_single ~paths ~catalog ~disk_gb ~policy:Vod_cache.Cache.Lru ~seed
    | 1 -> Vod_cache.Fleet.random_single ~paths ~catalog ~disk_gb ~policy:Vod_cache.Cache.Lfu ~seed
    | _ ->
        Vod_cache.Fleet.topk ~k:3 ~ranked:(Array.init 25 Fun.id) ~paths ~catalog ~disk_gb
          ~seed
  in
  (g, paths, catalog, trace, fleet)

let world_gen = QCheck.(triple (int_range 4 8) (int_range 1 10_000) (int_range 0 2))

(* With no fault and unbounded links, the faulted body (Fleet.serve_local,
   Router.route, Fleet.fetch) serves exactly as the direct body
   (Fleet.serve): every counter and the link-load matrix agree. *)
let prop_fault_free_matches_direct =
  QCheck.Test.make ~name:"fault-free faulted serving equals direct serving" ~count:20
    world_gen
    (fun (n, seed, scheme) ->
      let g, paths, catalog, trace, fleet = random_world ~n ~seed ~scheme in
      let run ?resil () =
        fst
          (Vod_serve.Loop.run_soa ~graph:g ~paths ~catalog ~fleet:(fleet ())
             ~store:trace ?resil ())
      in
      Golden.check_equal "faulted = direct" (run ())
        (run ~resil:(Vod_resil.Playout.config ()) ());
      true)

(* The metrics ledger under random fault timelines, finite link budgets
   and an origin: every request is served locally, remotely or rejected
   for one reason, and the event windows split the run's requests,
   rejections and failovers without loss. *)
let prop_fault_ledger_balances =
  QCheck.Test.make ~name:"fault windows and rejection reasons balance the ledger"
    ~count:20
    QCheck.(pair world_gen (int_range 0 2))
    (fun ((n, seed, scheme), budget) ->
      let module M = Vod_sim.Metrics in
      let g, paths, catalog, trace, fleet = random_world ~n ~seed ~scheme in
      let schedule =
        Vod_resil.Event.generate
          (Vod_resil.Event.default_gen_params ~n_vhos:n ~n_links:(G.n_links g)
             ~horizon_s:(3.0 *. Vod_workload.Trace.seconds_per_day)
             ~seed)
      in
      let resil =
        Vod_resil.Playout.config ~schedule
          ~link_capacity_mbps:[| 8.0; 20.0; 60.0 |].(budget)
          ~origin:(seed mod n) ()
      in
      let m, windows =
        Vod_serve.Loop.run_soa ~graph:g ~paths ~catalog ~fleet:(fleet ())
          ~store:trace ~resil ()
      in
      let d = m.M.deg in
      let sum field = List.fold_left (fun acc w -> acc + field w) 0 windows in
      m.M.requests = m.M.local_served + m.M.remote_served + d.M.rejections
      && d.M.rejections
         = d.M.rejected_vho_down + d.M.rejected_no_replica
           + d.M.rejected_unreachable + d.M.rejected_no_capacity
      && sum (fun w -> w.Vod_resil.Playout.requests) = m.M.requests
      && sum (fun w -> w.Vod_resil.Playout.rejections) = d.M.rejections
      && sum (fun w -> w.Vod_resil.Playout.failovers) = d.M.failovers)

(* ---------- CSV loaders under corruption ---------- *)

(* A loader under test: its header line (if the format has one), its
   field separator, a valid file's rows drawn at random (each field
   paired with the value one past its bound, for a bounded id field),
   and the load itself. *)
type loader = {
  name : string;
  header : string option;
  sep : string;
  rows : Random.State.t -> (string * string option) list list;
  load : string -> unit;
}

let draw_id st n = (string_of_int (Random.State.int st n), Some (string_of_int n))

(* Traces over 3 VHOs, 5 videos and one day. *)
let trace_loader =
  {
    name = "trace";
    header = Some Vod_workload.Trace_io.header;
    sep = ",";
    rows =
      (fun st ->
        List.init
          (1 + Random.State.int st 6)
          (fun _ ->
            [ (Printf.sprintf "%.3f" (Random.State.float st 86_000.0), None); draw_id st 3; draw_id st 5 ]));
    load = (fun path -> ignore (Vod_workload.Trace_io.load_csv ~n_videos:5 ~n_vhos:3 ~days:1 path));
  }

(* Placements of 4 videos over 3 VHOs: a copy of every video, then
   random extra copies and routes. *)
let placement_loader =
  let store st v = [ ("store", None); (string_of_int v, Some "4"); draw_id st 3; ("", None) ] in
  {
    name = "placement";
    header = Some Vod_placement.Solution_io.header;
    sep = ",";
    rows =
      (fun st ->
        List.init 4 (store st)
        @ List.init (Random.State.int st 4) (fun _ ->
              if Random.State.bool st then store st (Random.State.int st 4)
              else [ ("route", None); draw_id st 4; draw_id st 3; draw_id st 3 ]));
    load =
      (fun path -> ignore (Vod_placement.Solution_io.load_csv ~n_vhos:3 ~n_videos:4 path));
  }

(* Fault schedules over 3 VHOs and 4 directed links. *)
let schedule_loader =
  {
    name = "schedule";
    header = Some "time_s,event,args";
    sep = ",";
    rows =
      (fun st ->
        List.init
          (1 + Random.State.int st 6)
          (fun _ ->
            let time = (Printf.sprintf "%.3f" (Random.State.float st 1e5), None) in
            let event name = (name, None) in
            match Random.State.int st 6 with
            | 0 -> [ time; event "vho_down"; draw_id st 3 ]
            | 1 -> [ time; event "vho_up"; draw_id st 3 ]
            | 2 -> [ time; event "link_down"; draw_id st 4 ]
            | 3 -> [ time; event "link_up"; draw_id st 4 ]
            | 4 ->
                [
                  time;
                  event "surge_start";
                  draw_id st 3;
                  (Printf.sprintf "%.2f" (0.5 +. Random.State.float st 3.0), None);
                ]
            | _ -> [ time; event "surge_end"; draw_id st 3 ]));
    load = (fun path -> ignore (Vod_resil.Event.load_csv ~n_vhos:3 ~n_links:4 path));
  }

(* Edge lists: "u v" rows over 6 nodes with no header. A node id has no
   upper bound (the node count is the largest id + 1). *)
let edge_list_loader =
  {
    name = "edge list";
    header = None;
    sep = " ";
    rows =
      (fun st ->
        List.init
          (1 + Random.State.int st 6)
          (fun _ ->
            let u = Random.State.int st 6 in
            let v = (u + 1 + Random.State.int st 5) mod 6 in
            [ (string_of_int u, None); (string_of_int v, None) ]));
    load = (fun path -> ignore (Vod_topology.Topologies.load_edge_list ~path ()));
  }

(* One corruption of a row: keep a strict prefix of its fields, drop a
   field, add one, or set one to nan, inf, -1, garbage or (for an id)
   the value one past its bound. *)
let corrupt st fields =
  let values = List.map fst fields in
  let n = List.length fields in
  let keep f = List.filteri (fun i _ -> f i) values in
  match Random.State.int st 4 with
  | 0 -> keep (fun i -> i <= Random.State.int st (n - 1))
  | 1 ->
      let k = Random.State.int st n in
      keep (fun i -> i <> k)
  | 2 ->
      let k = Random.State.int st (n + 1) in
      keep (fun i -> i < k) @ ("0" :: keep (fun i -> i >= k))
  | _ ->
      let k = Random.State.int st n in
      let values_of_k = [ "nan"; "inf"; "-1"; "x1" ] @ Option.to_list (snd (List.nth fields k)) in
      let v = List.nth values_of_k (Random.State.int st (List.length values_of_k)) in
      List.mapi (fun i x -> if i = k then v else x) values

let write_rows (l : loader) path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Option.iter (fun h -> output_string oc (h ^ "\n")) l.header;
      List.iter (fun row -> output_string oc (String.concat l.sep row ^ "\n")) rows)

(* Every loader accepts a valid file and rejects the same file with one
   row corrupted, with [Invalid_argument] naming that row's line. *)
let prop_loaders_locate_corrupted_row =
  QCheck.Test.make ~name:"CSV loaders reject a corrupted row by its line" ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun l ->
          let rows = l.rows st in
          let bad = Random.State.int st (List.length rows) in
          let corrupted = corrupt st (List.nth rows bad) in
          let path = Filename.temp_file ("fuzz_" ^ l.name) ".csv" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              write_rows l path (List.map (List.map fst) rows);
              l.load path;
              write_rows l path
                (List.mapi (fun i r -> if i = bad then corrupted else List.map fst r) rows);
              let lineno = bad + if Option.is_some l.header then 2 else 1 in
              let row = String.concat l.sep corrupted in
              match l.load path with
              | () -> QCheck.Test.fail_reportf "%s: %S on line %d loaded" l.name row lineno
              | exception Invalid_argument msg ->
                  String.ends_with ~suffix:(Printf.sprintf " on line %d" lineno) msg
                  || QCheck.Test.fail_reportf "%s: %S on line %d raised %S" l.name row
                       lineno msg))
        [ trace_loader; placement_loader; schedule_loader; edge_list_loader ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_loaders_locate_corrupted_row;
      prop_faulted_serving_conserves;
      prop_fault_free_matches_direct;
      prop_fault_ledger_balances;
      prop_generated_graphs_connected;
      prop_hops_symmetric;
      prop_triangle_inequality;
      prop_trace_deterministic;
      prop_engine_usage_conserved;
      prop_every_video_placed;
    ]
