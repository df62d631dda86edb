(* Golden serving fixtures and the serving scenarios they were recorded
   on.

   The fixtures under test/golden/ are the outputs of serving engines
   that no longer exist: the fixed-path engine Vod_sim.Sim and the
   fault-injecting engine Vod_resil.Playout (each through its boxed-array
   and its columnar entry point), the boxed entry point of the serving
   loop, the array-backed batch pipeline, and the batch pipeline's own
   replanning loop (before the pipeline ran on Vod_serve.Daemon). Each
   was a field-for-field copy of code that still runs (the Loop.play_soa
   bodies, the daemon's replan step), so their recorded outputs are the
   equivalence reference. A fixture is a plain-text dump of one run:
   every Metrics counter, floats as %h (exact), an MD5 of the link-load
   matrix, the degradation counters, the event windows and, for a
   replanning run, each placement update's (transfers, GB). Lines
   starting with '#' record provenance and are ignored by the
   comparison.

   Other fixtures pin what the boxed request representation computed
   before the columnar store became the only one: [sim_world]'s trace
   ([dump_trace]), demand models ([dump_demand]) and the window
   refinement's rounds (test_refine.ml). *)

module M = Vod_sim.Metrics
module E = Vod_resil.Event
module Playout = Vod_resil.Playout

(* ---------- scenarios ---------- *)

let ring4 () =
  Vod_topology.Graph.create ~name:"ring4" ~n:4
    ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
    ~populations:[| 2.0; 1.0; 1.0; 1.0 |]

(* A 7-day, ~2,800-request week over ring4 with a 30-video catalog. *)
let sim_world () =
  let g = ring4 () in
  let paths = Vod_topology.Paths.compute g in
  let catalog =
    Vod_workload.Catalog.generate
      (Vod_workload.Catalog.default_params ~n:30 ~days:7 ~seed:3)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:g.Vod_topology.Graph.populations
         ~mean_daily_requests:400.0 ~seed:4)
  in
  (g, paths, catalog, trace)

let lru_fleet paths catalog =
  Vod_cache.Fleet.random_single ~paths ~catalog
    ~disk_gb:[| 15.0; 15.0; 15.0; 15.0 |] ~policy:Vod_cache.Cache.Lru ~seed:5

(* One-shot playout of [sim_world] through the serving loop, from a
   fresh [lru_fleet]. *)
let run_loop ?record_from ?resil () =
  let g, paths, catalog, trace = sim_world () in
  Vod_serve.Loop.run_soa ~graph:g ~paths ~catalog
    ~fleet:(lru_fleet paths catalog) ~store:trace ?record_from ?resil ()

let ev time_s kind = { E.time_s; kind }

let week_s = 7.0 *. Vod_workload.Trace.seconds_per_day

(* Outage of VHO 0 overlapping a 2x surge at VHO 1, 120 Mb/s links, VHO
   2 as origin: every rejection cause and failover path fires. *)
let faulted_config () =
  let schedule =
    E.create
      [
        ev (0.3 *. week_s) (E.Vho_down 0);
        ev (0.5 *. week_s) (E.Surge_start { vho = 1; factor = 2.0 });
        ev (0.6 *. week_s) (E.Vho_up 0);
        ev (0.7 *. week_s) (E.Surge_end 1);
      ]
  in
  Playout.config ~schedule ~link_capacity_mbps:120.0 ~origin:2 ()

(* VHO 0 (the biggest metro) dark from 30% to 60% of the week. *)
let outage_config () =
  Playout.config
    ~schedule:
      (E.create
         [ ev (0.3 *. week_s) (E.Vho_down 0); ev (0.6 *. week_s) (E.Vho_up 0) ])
    ()

(* Every VHO surging 2x for the whole week. *)
let surge_config () =
  Playout.config
    ~schedule:
      (E.create
         (List.concat_map
            (fun v ->
              [
                ev 0.0 (E.Surge_start { vho = v; factor = 2.0 });
                ev week_s (E.Surge_end v);
              ])
            [ 0; 1; 2; 3 ]))
    ()

(* The pipeline scenario: 10 days over ring4, 2 warm-up days. *)
let pipeline_config () =
  let scenario =
    Vod_core.Scenario.make ~days:10 ~requests_per_video_per_day:4.0 ~seed:9
      ~graph:(ring4 ()) ~n_videos:40 ()
  in
  {
    (Vod_core.Pipeline.default_config ~scenario
       ~disk_gb:(Vod_core.Scenario.uniform_disk scenario ~multiple:2.0)
       ~link_capacity_mbps:500.0)
    with
    Vod_core.Pipeline.warmup_days = 2;
  }

(* The daily-replan scenario: [pipeline_config] with VHO 0 dark from day
   7.3 to 8.3, across the day-8 replan, 120 Mb/s playout links and VHO 2
   as origin, under MIP placements re-solved every day. *)
let daily_outage_config () =
  let day = Vod_workload.Trace.seconds_per_day in
  let schedule =
    E.create [ ev (7.3 *. day) (E.Vho_down 0); ev (8.3 *. day) (E.Vho_up 0) ]
  in
  {
    (pipeline_config ()) with
    Vod_core.Pipeline.resil =
      Some (Playout.config ~schedule ~link_capacity_mbps:120.0 ~origin:2 ());
  }

let daily_mip =
  { Vod_core.Pipeline.default_mip with Vod_core.Pipeline.update_days = 1 }

(* ---------- dumps ---------- *)

(* [migrations] are the (transfers, GB) of each placement update, in
   update order. *)
let dump ?(migrations = []) (m : M.t) (windows : Playout.window list) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  line "bin_s %h" m.M.bin_s;
  line "n_bins %d" m.M.n_bins;
  line "n_links %d" m.M.n_links;
  line "record_from %h" m.M.record_from;
  line "requests %d" m.M.requests;
  line "local_served %d" m.M.local_served;
  line "cache_hits %d" m.M.cache_hits;
  line "remote_served %d" m.M.remote_served;
  line "not_cachable %d" m.M.not_cachable;
  line "total_gb_hops %h" m.M.total_gb_hops;
  line "total_gb_remote %h" m.M.total_gb_remote;
  line "per_vho_requests %s" (ints m.M.per_vho_requests);
  line "per_vho_local %s" (ints m.M.per_vho_local);
  let load = Buffer.create 4096 in
  Array.iter (Array.iter (Printf.bprintf load "%h\n")) m.M.link_load;
  line "link_load_md5 %s" (Digest.to_hex (Digest.string (Buffer.contents load)));
  line "max_link_mbps %h" (M.max_link_mbps m);
  let d = m.M.deg in
  line "deg.rejections %d" d.M.rejections;
  line "deg.rejected_vho_down %d" d.M.rejected_vho_down;
  line "deg.rejected_no_replica %d" d.M.rejected_no_replica;
  line "deg.rejected_unreachable %d" d.M.rejected_unreachable;
  line "deg.rejected_no_capacity %d" d.M.rejected_no_capacity;
  line "deg.failovers %d" d.M.failovers;
  line "deg.failover_extra_hops %d" d.M.failover_extra_hops;
  line "deg.origin_served %d" d.M.origin_served;
  line "deg.link_saturated_s %h" d.M.link_saturated_s;
  List.iter
    (fun (w : Playout.window) ->
      line "window %h %h %d %d %d %s" w.Playout.t0_s w.Playout.t1_s
        w.Playout.requests w.Playout.rejections w.Playout.failovers
        w.Playout.trigger)
    windows;
  List.iter (fun (transfers, gb) -> line "migration %d %h" transfers gb) migrations;
  Buffer.contents b

(* A trace's shape and an MD5 of every row (%h time, vho, video). *)
let dump_trace (t : Vod_workload.Trace.t) =
  let rows = Buffer.create 65536 in
  for i = 0 to Vod_workload.Trace.length t - 1 do
    Printf.bprintf rows "%h %d %d\n" (Vod_workload.Trace.time t i)
      (Vod_workload.Trace.vho t i) (Vod_workload.Trace.video t i)
  done;
  Printf.sprintf "requests %d\nn_vhos %d\ndays %d\nrows_md5 %s\n"
    (Vod_workload.Trace.length t) t.Vod_workload.Trace.n_vhos
    t.Vod_workload.Trace.days
    (Digest.to_hex (Digest.string (Buffer.contents rows)))

(* A demand model: sizes, peak windows, total, and every sparse
   (vho, count) entry of a and of each window's f, floats as %h. *)
let dump_demand (d : Vod_workload.Demand.t) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  let sparse label per_video =
    Array.iteri
      (fun video pairs ->
        if pairs <> [||] then
          line "%s %d %s" label video
            (String.concat " "
               (Array.to_list
                  (Array.map (fun (vho, c) -> Printf.sprintf "%d:%h" vho c) pairs))))
      per_video
  in
  line "n_videos %d" d.Vod_workload.Demand.n_videos;
  line "n_vhos %d" d.Vod_workload.Demand.n_vhos;
  Array.iter (fun (t0, t1) -> line "window %h %h" t0 t1) d.Vod_workload.Demand.windows;
  line "total_requests %h" d.Vod_workload.Demand.total_requests;
  sparse "a" d.Vod_workload.Demand.a;
  Array.iteri (fun w f -> sparse (Printf.sprintf "f%d" w) f) d.Vod_workload.Demand.f;
  Buffer.contents b

(* The demand model of a whole 7-day trace (day0 0, one-hour windows). *)
let week_demand ?(n_windows = 2) catalog ~n_vhos (trace : Vod_workload.Trace.t) =
  Vod_workload.Demand.of_soa catalog ~n_vhos ~day0:0 ~days:7 ~n_windows
    ~window_s:3600.0 trace ~lo:0 ~hi:(Vod_workload.Trace.length trace)

let read_fixture name =
  let ic = open_in_bin (Filename.concat "golden" (name ^ ".golden")) in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  String.split_on_char '\n' text
  |> List.filter (fun l -> not (String.starts_with ~prefix:"#" l))
  |> String.concat "\n"

(* [text] must reproduce fixture [name] exactly. *)
let check_text name text =
  Alcotest.(check string) ("golden " ^ name) (read_fixture name) text

(* The run must reproduce fixture [name] exactly. *)
let check ?migrations name m windows = check_text name (dump ?migrations m windows)

(* Two runs must agree on every dumped field. *)
let check_equal label (a : M.t) (b : M.t) =
  Alcotest.(check string) label (dump a []) (dump b [])
