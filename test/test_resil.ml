(* Tests for lib/resil: fault schedules (sorting, CSV, generator), fault
   state, capacity tracking, failover routing, and the serving loop's
   faulted configuration — including the acceptance property that with
   no faults and unbounded capacity it reproduces the direct
   configuration byte-for-byte. *)

module E = Vod_resil.Event
module M = Vod_sim.Metrics

let ev time_s kind = { E.time_s; kind }

(* ---------- events ---------- *)

let schedule_sorting () =
  let s =
    E.create
      [
        ev 100.0 (E.Vho_up 1);
        ev 50.0 (E.Vho_down 1);
        (* same-time events keep authored order *)
        ev 50.0 (E.Link_down 0);
      ]
  in
  Alcotest.(check int) "length" 3 (E.length s);
  Alcotest.(check bool) "first is vho_down" true (s.(0).E.kind = E.Vho_down 1);
  Alcotest.(check bool) "stable tie" true (s.(1).E.kind = E.Link_down 0);
  Alcotest.(check (float 1e-9)) "last time" 100.0 s.(2).E.time_s;
  Alcotest.check_raises "negative time" (Invalid_argument
    "Event.create: event times must be finite and non-negative") (fun () ->
      ignore (E.create [ ev (-1.0) (E.Vho_down 0) ]))

let schedule_csv_roundtrip () =
  let s =
    E.create
      [
        ev 60.0 (E.Vho_down 3);
        ev 120.5 (E.Surge_start { vho = 2; factor = 2.5 });
        ev 200.0 (E.Surge_end 2);
        ev 240.0 (E.Link_down 7);
        ev 300.0 (E.Link_up 7);
        ev 360.0 (E.Vho_up 3);
      ]
  in
  let path = Filename.temp_file "sched" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      E.save_csv s path;
      let s' = E.load_csv ~n_vhos:4 ~n_links:8 path in
      Alcotest.(check int) "length" (E.length s) (E.length s');
      Array.iteri
        (fun i e ->
          Alcotest.(check bool)
            (Printf.sprintf "event %d" i)
            true
            (e.E.kind = s'.(i).E.kind
            && Float.abs (e.E.time_s -. s'.(i).E.time_s) < 1e-3))
        s)

let schedule_csv_errors () =
  let path = Filename.temp_file "sched" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "time_s,event,args\n# comment\n10.0,vho_down,1\nnot-a-record\n";
      close_out oc;
      Alcotest.check_raises "line-numbered error"
        (Invalid_argument "Event.load_csv: bad record on line 4") (fun () ->
          ignore (E.load_csv ~n_vhos:4 ~n_links:8 path)))

(* Every rejected schedule row names its line, whatever the reason: a
   time, a surge factor or an id (4 VHOs, 8 links) out of range. *)
let schedule_csv_rejects_row ~row ~msg () =
  let path = Filename.temp_file "sched" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc ("time_s,event,args\n10.0,vho_down,1\n" ^ row ^ "\n30.0,vho_up,1\n");
      close_out oc;
      Alcotest.check_raises row
        (Invalid_argument ("Event.load_csv: " ^ msg ^ " on line 3"))
        (fun () -> ignore (E.load_csv ~n_vhos:4 ~n_links:8 path)))

let schedule_row_cases =
  let time = "event times must be finite and non-negative" in
  let factor = "surge factor must be finite and positive" in
  [
    ("nan time", "nan,vho_down,0", time);
    ("infinite time", "inf,vho_down,0", time);
    ("negative time", "-1.0,vho_down,0", time);
    ("zero surge factor", "20.0,surge_start,0,0", factor);
    ("negative surge factor", "20.0,surge_start,0,-2.5", factor);
    ("nan surge factor", "20.0,surge_start,0,nan", factor);
    ("VHO past the bound", "20.0,vho_down,4", "VHO 4 outside [0, 4)");
    ("negative VHO", "20.0,surge_end,-1", "VHO -1 outside [0, 4)");
    ("surge VHO past the bound", "20.0,surge_start,4,2.0", "VHO 4 outside [0, 4)");
    ("link past the bound", "20.0,link_down,8", "link 8 outside [0, 8)");
    ("negative link", "20.0,link_up,-1", "link -1 outside [0, 8)");
  ]

let generator_deterministic () =
  let p = E.default_gen_params ~n_vhos:10 ~n_links:24 ~horizon_s:86_400.0 ~seed:9 in
  let a = E.generate p and b = E.generate p in
  (* Two VHO outages, two link outages and one surge. *)
  Alcotest.(check int) "pair count" 10 (E.length a);
  Alcotest.(check bool) "same schedule" true (a = b);
  Array.iter
    (fun e ->
      Alcotest.(check bool) "within horizon" true
        (e.E.time_s >= 0.0 && e.E.time_s <= 86_400.0))
    a;
  let c = E.generate { p with E.seed = 10 } in
  Alcotest.(check bool) "seed changes schedule" true (a <> c)

(* ---------- state ---------- *)

let state_advance () =
  let s =
    E.create
      [
        ev 10.0 (E.Vho_down 1);
        ev 20.0 (E.Surge_start { vho = 0; factor = 2.0 });
        ev 25.0 (E.Surge_start { vho = 0; factor = 3.0 });
        ev 30.0 (E.Vho_up 1);
        ev 40.0 (E.Surge_end 0);
      ]
  in
  let st = Vod_resil.State.create ~n_vhos:2 ~n_links:2 s in
  Alcotest.(check bool) "initially up" true (Vod_resil.State.vho_up st 1);
  let n = Vod_resil.State.advance st ~now:15.0 ~on_event:(fun _ -> ()) in
  Alcotest.(check int) "one event" 1 n;
  Alcotest.(check bool) "down" false (Vod_resil.State.vho_up st 1);
  ignore (Vod_resil.State.advance st ~now:26.0 ~on_event:(fun _ -> ()) : int);
  Alcotest.(check (float 1e-9)) "surge last-writer-wins" 3.0 (Vod_resil.State.surge st 0);
  Alcotest.(check int) "pending" 2 (Vod_resil.State.pending st);
  ignore (Vod_resil.State.advance st ~now:100.0 ~on_event:(fun _ -> ()) : int);
  Alcotest.(check bool) "up again" true (Vod_resil.State.vho_up st 1);
  Alcotest.(check (float 1e-9)) "surge cleared" 1.0 (Vod_resil.State.surge st 0)

(* ---------- capacity ---------- *)

let capacity_admission () =
  let c = Vod_resil.Capacity.create ~capacity_mbps:[| 10.0; 10.0 |] in
  Alcotest.(check bool) "not unbounded" false (Vod_resil.Capacity.unbounded c);
  Alcotest.(check bool) "fits empty" true
    (Vod_resil.Capacity.fits c ~links:[| 0; 1 |] ~rate_mbps:8.0);
  Vod_resil.Capacity.reserve c ~links:[| 0; 1 |] ~rate_mbps:8.0 ~until_s:100.0 ~now:0.0;
  Alcotest.(check bool) "second stream blocked" false
    (Vod_resil.Capacity.fits c ~links:[| 0 |] ~rate_mbps:8.0);
  Alcotest.(check bool) "small one fits" true
    (Vod_resil.Capacity.fits c ~links:[| 0 |] ~rate_mbps:2.0);
  (* After the stream ends the bandwidth comes back. *)
  Vod_resil.Capacity.expire c ~now:100.0;
  Alcotest.(check bool) "released" true
    (Vod_resil.Capacity.fits c ~links:[| 0; 1 |] ~rate_mbps:8.0);
  Alcotest.(check (float 1e-9)) "load zero" 0.0 (Vod_resil.Capacity.load c 0);
  let u = Vod_resil.Capacity.create ~capacity_mbps:[| Float.infinity |] in
  Alcotest.(check bool) "unbounded" true (Vod_resil.Capacity.unbounded u);
  Alcotest.(check bool) "always fits" true
    (Vod_resil.Capacity.fits u ~links:[| 0 |] ~rate_mbps:1e12)

let capacity_saturation () =
  let c = Vod_resil.Capacity.create ~capacity_mbps:[| 10.0 |] in
  (* 9.6/10 >= 0.95 saturated from t=0 until expiry at t=50. *)
  Vod_resil.Capacity.reserve c ~links:[| 0 |] ~rate_mbps:9.6 ~until_s:50.0 ~now:0.0;
  Vod_resil.Capacity.expire c ~now:80.0;
  Vod_resil.Capacity.finish c ~now:80.0;
  Alcotest.(check (float 1e-6)) "saturated 50s" 50.0
    (Vod_resil.Capacity.saturated_seconds c)

(* ---------- masked paths ---------- *)

let line4 () =
  Vod_topology.Graph.create ~name:"line4" ~n:4
    ~edges:[ (0, 1); (1, 2); (2, 3) ]
    ~populations:[| 1.0; 1.0; 1.0; 1.0 |]

let ring4 = Golden.ring4

(* Directed link id from a to b. *)
let link_between g a b =
  let found = ref (-1) in
  Array.iter
    (fun lid ->
      if (Vod_topology.Graph.link g lid).Vod_topology.Graph.dst = b then found := lid)
    g.Vod_topology.Graph.out_links.(a);
  if !found < 0 then failwith "no such link";
  !found

let masked_paths () =
  let g = ring4 () in
  let all_up = Array.make (Vod_topology.Graph.n_links g) true in
  let masked = Vod_topology.Paths.compute_masked g ~link_up:all_up in
  let base = Vod_topology.Paths.compute g in
  for s = 0 to 3 do
    for d = 0 to 3 do
      Alcotest.(check int)
        (Printf.sprintf "hops %d->%d" s d)
        (Vod_topology.Paths.hops base ~src:s ~dst:d)
        (Vod_topology.Paths.hops masked ~src:s ~dst:d);
      Alcotest.(check bool) "same links" true
        (Vod_topology.Paths.path_links base ~src:s ~dst:d
        = Vod_topology.Paths.path_links masked ~src:s ~dst:d)
    done
  done;
  (* Kill 1->0: traffic from 1 to 0 must go the long way round. *)
  let up = Array.make (Vod_topology.Graph.n_links g) true in
  up.(link_between g 1 0) <- false;
  let m = Vod_topology.Paths.compute_masked g ~link_up:up in
  Alcotest.(check int) "rerouted 1->0" 3 (Vod_topology.Paths.hops m ~src:1 ~dst:0);
  Alcotest.(check bool) "still reachable" true
    (Vod_topology.Paths.reachable m ~src:1 ~dst:0);
  (* A severed line end becomes unreachable, and compute would raise. *)
  let gl = line4 () in
  let upl = Array.make (Vod_topology.Graph.n_links gl) true in
  upl.(link_between gl 0 1) <- false;
  let ml = Vod_topology.Paths.compute_masked gl ~link_up:upl in
  Alcotest.(check bool) "unreachable" false
    (Vod_topology.Paths.reachable ml ~src:0 ~dst:1);
  Alcotest.(check bool) "reverse unaffected" true
    (Vod_topology.Paths.reachable ml ~src:1 ~dst:0)

(* ---------- router ---------- *)

let router_world ?(capacity = Float.infinity) ?origin schedule =
  let g = ring4 () in
  let paths = Vod_topology.Paths.compute g in
  let state =
    Vod_resil.State.create ~n_vhos:4 ~n_links:(Vod_topology.Graph.n_links g)
      (E.create schedule)
  in
  let cap =
    Vod_resil.Capacity.create
      ~capacity_mbps:(Array.make (Vod_topology.Graph.n_links g) capacity)
  in
  let router = Vod_resil.Router.create ~graph:g ~paths ~state ~capacity:cap ?origin () in
  (g, state, router)

let router_failover_to_alive () =
  let _, state, router = router_world [ ev 0.0 (E.Vho_down 1) ] in
  ignore (Vod_resil.State.advance state ~now:0.0 ~on_event:(fun _ -> ()) : int);
  match
    Vod_resil.Router.route router ~holders:[| 3; 1 |] ~n_holders:2 ~dst:0 ~default:1
      ~rate_mbps:4.0 ~until_s:100.0 ~now:0.0
  with
  | Vod_resil.Router.Served s ->
      Alcotest.(check int) "served by 3" 3 s.Vod_resil.Router.server;
      Alcotest.(check bool) "failover" true s.Vod_resil.Router.failover;
      Alcotest.(check int) "one hop on the ring" 1 s.Vod_resil.Router.hops;
      Alcotest.(check int) "no extra hops (default dead)" 0
        s.Vod_resil.Router.extra_hops;
      Alcotest.(check bool) "not origin" false s.Vod_resil.Router.via_origin
  | Vod_resil.Router.Rejected _ -> Alcotest.fail "expected Served"

let router_capacity_fallback () =
  let _, _, router = router_world ~capacity:10.0 [] in
  (* First stream fills 1->0; the second must fail over to the other
     holder even though VHO 1 is alive. *)
  (match
     Vod_resil.Router.route router ~holders:[| 1; 3 |] ~n_holders:2 ~dst:0 ~default:1
       ~rate_mbps:8.0 ~until_s:100.0 ~now:0.0
   with
  | Vod_resil.Router.Served s ->
      Alcotest.(check int) "default first" 1 s.Vod_resil.Router.server
  | Vod_resil.Router.Rejected _ -> Alcotest.fail "first must be served");
  (match
     Vod_resil.Router.route router ~holders:[| 1; 3 |] ~n_holders:2 ~dst:0 ~default:1
       ~rate_mbps:8.0 ~until_s:100.0 ~now:0.0
   with
  | Vod_resil.Router.Served s ->
      Alcotest.(check int) "fallback holder" 3 s.Vod_resil.Router.server;
      Alcotest.(check bool) "failover" true s.Vod_resil.Router.failover;
      Alcotest.(check int) "same hop count" 0 s.Vod_resil.Router.extra_hops
  | Vod_resil.Router.Rejected _ -> Alcotest.fail "second must fail over");
  (* Both 1-hop paths are now full: a third stream has nowhere to go. *)
  match
    Vod_resil.Router.route router ~holders:[| 1; 3 |] ~n_holders:2 ~dst:0 ~default:1
      ~rate_mbps:8.0 ~until_s:100.0 ~now:0.0
  with
  | Vod_resil.Router.Rejected r ->
      Alcotest.(check string) "no capacity" "no_capacity"
        (Vod_resil.Router.reject_reason_to_string r)
  | Vod_resil.Router.Served _ -> Alcotest.fail "third must be rejected"

let router_origin_and_reasons () =
  (* dst down: rejected before anything else. *)
  let _, st, r = router_world [ ev 0.0 (E.Vho_down 0) ] in
  ignore (Vod_resil.State.advance st ~now:0.0 ~on_event:(fun _ -> ()) : int);
  (match
     Vod_resil.Router.route r ~holders:[| 1 |] ~n_holders:1 ~dst:0 ~default:1 ~rate_mbps:1.0
       ~until_s:10.0 ~now:0.0
   with
  | Vod_resil.Router.Rejected Vod_resil.Router.Vho_down -> ()
  | _ -> Alcotest.fail "expected Vho_down");
  (* no holders anywhere, fleet's default dead, no origin: No_replica. *)
  let _, st, r = router_world [ ev 0.0 (E.Vho_down 1) ] in
  ignore (Vod_resil.State.advance st ~now:0.0 ~on_event:(fun _ -> ()) : int);
  (match
     Vod_resil.Router.route r ~holders:[||] ~n_holders:0 ~dst:0 ~default:1 ~rate_mbps:1.0
       ~until_s:10.0 ~now:0.0
   with
  | Vod_resil.Router.Rejected Vod_resil.Router.No_replica -> ()
  | _ -> Alcotest.fail "expected No_replica");
  (* all holders down, no origin: Unreachable. *)
  let _, st, r = router_world [ ev 0.0 (E.Vho_down 1); ev 0.0 (E.Vho_down 2) ] in
  ignore (Vod_resil.State.advance st ~now:0.0 ~on_event:(fun _ -> ()) : int);
  (match
     Vod_resil.Router.route r ~holders:[| 1; 2 |] ~n_holders:2 ~dst:0 ~default:1 ~rate_mbps:1.0
       ~until_s:10.0 ~now:0.0
   with
  | Vod_resil.Router.Rejected Vod_resil.Router.Unreachable -> ()
  | _ -> Alcotest.fail "expected Unreachable");
  (* same, but an origin rescues it. *)
  let _, st, r =
    router_world ~origin:2 [ ev 0.0 (E.Vho_down 1); ev 0.0 (E.Vho_down 3) ]
  in
  ignore (Vod_resil.State.advance st ~now:0.0 ~on_event:(fun _ -> ()) : int);
  match
    Vod_resil.Router.route r ~holders:[| 1; 3 |] ~n_holders:2 ~dst:0 ~default:1 ~rate_mbps:1.0
      ~until_s:10.0 ~now:0.0
  with
  | Vod_resil.Router.Served s ->
      Alcotest.(check int) "origin serves" 2 s.Vod_resil.Router.server;
      Alcotest.(check bool) "via origin" true s.Vod_resil.Router.via_origin;
      Alcotest.(check bool) "failover" true s.Vod_resil.Router.failover
  | Vod_resil.Router.Rejected _ -> Alcotest.fail "origin must serve"

(* ---------- faulted serving ---------- *)

(* The acceptance property, live: no faults + unbounded capacity makes
   the faulted configuration (Fleet.serve_local, Router.route and
   Fleet.fetch) reproduce the direct one (Fleet.serve over fixed paths)
   byte-for-byte, including the whole link-load matrix — and match its
   recorded engine. The direct run is the one test_soa.ml checks against
   loop_run_direct. *)
let playout_matches_legacy_sim () =
  let record_from = Vod_workload.Trace.seconds_per_day in
  let direct, _ = Golden.run_loop ~record_from () in
  let resil, windows =
    Golden.run_loop ~record_from ~resil:(Vod_resil.Playout.config ()) ()
  in
  Golden.check_equal "faulted = direct" direct resil;
  Golden.check "playout_run_fault_free" resil windows;
  Alcotest.(check int) "no rejections" 0 resil.M.deg.M.rejections;
  Alcotest.(check int) "no failovers" 0 resil.M.deg.M.failovers;
  Alcotest.(check (float 1e-9)) "no saturation" 0.0 resil.M.deg.M.link_saturated_s;
  (* One window spanning the whole playout, closed by the horizon. *)
  match windows with
  | [ w ] ->
      Alcotest.(check string) "single start window" "start" w.Vod_resil.Playout.trigger;
      Alcotest.(check int) "window counts recorded requests" direct.M.requests
        w.Vod_resil.Playout.requests
  | ws -> Alcotest.fail (Printf.sprintf "expected 1 window, got %d" (List.length ws))

let playout_outage_conservation () =
  let m, windows = Golden.run_loop ~resil:(Golden.outage_config ()) () in
  Golden.check "playout_run_outage" m windows;
  let deg = m.M.deg in
  let _, _, _, trace = Golden.sim_world () in
  Alcotest.(check int) "every request counted"
    (Vod_workload.Trace.length trace) m.M.requests;
  Alcotest.(check int) "local + remote + rejected = total" m.M.requests
    (m.M.local_served + m.M.remote_served + deg.M.rejections);
  Alcotest.(check int) "reject reasons partition" deg.M.rejections
    (deg.M.rejected_vho_down + deg.M.rejected_no_replica
    + deg.M.rejected_unreachable + deg.M.rejected_no_capacity);
  Alcotest.(check bool) "outage rejected something" true (deg.M.rejections > 0);
  (* VHO 0 is the biggest metro: its own requests are the bulk. *)
  Alcotest.(check bool) "dominated by vho_down" true
    (deg.M.rejected_vho_down > 0);
  (* Windows partition the recorded requests, and only the outage window
     rejects. *)
  Alcotest.(check int) "3 windows" 3 (List.length windows);
  Alcotest.(check int) "window requests sum" m.M.requests
    (List.fold_left
       (fun acc (w : Vod_resil.Playout.window) -> acc + w.Vod_resil.Playout.requests)
       0 windows);
  (match windows with
  | [ before; down; after ] ->
      Alcotest.(check int) "clean before" 0 before.Vod_resil.Playout.rejections;
      Alcotest.(check bool) "rejections in outage window" true
        (down.Vod_resil.Playout.rejections > 0);
      Alcotest.(check string) "trigger" "vho_down,0" down.Vod_resil.Playout.trigger;
      Alcotest.(check int) "clean after" 0 after.Vod_resil.Playout.rejections
  | _ -> Alcotest.fail "bad windows");
  (* Per-VHO counters still partition the totals (rejections included). *)
  Alcotest.(check int) "per-vho requests sum" m.M.requests
    (Array.fold_left ( + ) 0 m.M.per_vho_requests)

(* Everyone surging 2x for the whole run: serving decisions are unchanged
   (caches see the same touches), but every remote stream carries twice
   the rate. *)
let playout_surge_scales_load () =
  let base, _ = Golden.run_loop ~resil:(Vod_resil.Playout.config ()) () in
  let surged, windows = Golden.run_loop ~resil:(Golden.surge_config ()) () in
  Golden.check "playout_run_surge" surged windows;
  Alcotest.(check int) "same serving split" base.M.local_served
    surged.M.local_served;
  Alcotest.(check (float 1e-6)) "transfer doubled"
    (2.0 *. base.M.total_gb_remote) surged.M.total_gb_remote;
  Alcotest.(check (float 1e-6)) "peak doubled"
    (2.0 *. M.max_link_mbps base) (M.max_link_mbps surged)

(* An origin outside the topology is refused when the loop is built,
   not at the first request that falls back to it. *)
let loop_rejects_bad_origin () =
  let g, paths, catalog, _ = Golden.sim_world () in
  List.iter
    (fun origin ->
      Alcotest.check_raises
        (Printf.sprintf "origin %d" origin)
        (Invalid_argument
           (Printf.sprintf "Playout.validate: origin %d outside [0, 4)" origin))
        (fun () ->
          ignore
            (Vod_serve.Loop.create ~graph:g ~paths ~catalog
               ~fleet:(Golden.lru_fleet paths catalog)
               ~resil:(Vod_resil.Playout.config ~origin ())
               ())))
    [ -1; 4 ]

let pipeline_resil_wiring () =
  let g = ring4 () in
  let sc =
    Vod_core.Scenario.make ~days:4 ~requests_per_video_per_day:6.0 ~seed:12
      ~graph:g ~n_videos:30 ()
  in
  let base_cfg =
    Vod_core.Pipeline.default_config ~scenario:sc
      ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:2.0)
      ~link_capacity_mbps:1000.0
  in
  let no_faults =
    Vod_core.Pipeline.run
      { base_cfg with Vod_core.Pipeline.warmup_days = 1 }
      (Vod_core.Pipeline.Random_cache Vod_cache.Cache.Lru)
  in
  Alcotest.(check bool) "no windows without resil" true
    (no_faults.Vod_core.Pipeline.resil_windows = []);
  let faulted =
    Vod_core.Pipeline.run
      {
        base_cfg with
        Vod_core.Pipeline.warmup_days = 1;
        Vod_core.Pipeline.resil =
          Some
            (Vod_resil.Playout.config
               ~schedule:(Vod_core.Scenario.single_vho_outage sc) ());
      }
      (Vod_core.Pipeline.Random_cache Vod_cache.Cache.Lru)
  in
  Alcotest.(check int) "outage + recovery + end windows" 3
    (List.length faulted.Vod_core.Pipeline.resil_windows);
  let m = faulted.Vod_core.Pipeline.metrics in
  Alcotest.(check bool) "rejections recorded" true (m.M.deg.M.rejections > 0);
  Alcotest.(check bool) "rate in (0,1)" true
    (M.rejection_rate m > 0.0 && M.rejection_rate m < 1.0)

let canned_scenarios_validate () =
  let g = ring4 () in
  let sc =
    Vod_core.Scenario.make ~days:4 ~requests_per_video_per_day:2.0 ~seed:12
      ~graph:g ~n_videos:10 ()
  in
  let n_vhos = Vod_topology.Graph.n_nodes g in
  let n_links = Vod_topology.Graph.n_links g in
  List.iter
    (fun schedule ->
      E.validate schedule ~n_vhos ~n_links;
      Alcotest.(check bool) "non-empty" true (E.length schedule > 0);
      Array.iter
        (fun e ->
          Alcotest.(check bool) "inside trace" true
            (e.E.time_s >= 0.0 && e.E.time_s <= 4.0 *. 86_400.0))
        schedule)
    [
      Vod_core.Scenario.single_vho_outage sc;
      Vod_core.Scenario.correlated_outage sc;
      Vod_core.Scenario.flash_crowd sc;
    ];
  (* The correlated outage touches both directions of the shared edge. *)
  let corr = Vod_core.Scenario.correlated_outage sc in
  let link_downs =
    Array.to_list corr
    |> List.filter_map (fun e ->
           match e.E.kind with E.Link_down l -> Some l | _ -> None)
  in
  Alcotest.(check int) "two directed links" 2 (List.length link_downs);
  match link_downs with
  | [ a; b ] ->
      Alcotest.(check int) "opposite directions" a
        (Vod_topology.Graph.reverse_link g b)
  | _ -> Alcotest.fail "expected exactly two link_down events"

let suite =
  [
    Alcotest.test_case "schedule sorting" `Quick schedule_sorting;
    Alcotest.test_case "schedule CSV round-trip" `Quick schedule_csv_roundtrip;
    Alcotest.test_case "schedule CSV errors" `Quick schedule_csv_errors;
  ]
  @ List.map
      (fun (name, row, msg) ->
        Alcotest.test_case ("schedule rejects " ^ name) `Quick
          (schedule_csv_rejects_row ~row ~msg))
      schedule_row_cases
  @ [
    Alcotest.test_case "generator deterministic" `Quick generator_deterministic;
    Alcotest.test_case "state advance" `Quick state_advance;
    Alcotest.test_case "capacity admission" `Quick capacity_admission;
    Alcotest.test_case "capacity saturation" `Quick capacity_saturation;
    Alcotest.test_case "masked paths" `Quick masked_paths;
    Alcotest.test_case "router failover to alive" `Quick router_failover_to_alive;
    Alcotest.test_case "router capacity fallback" `Quick router_capacity_fallback;
    Alcotest.test_case "router origin and reasons" `Quick router_origin_and_reasons;
    Alcotest.test_case "playout matches legacy sim" `Quick playout_matches_legacy_sim;
    Alcotest.test_case "outage conservation + windows" `Quick playout_outage_conservation;
    Alcotest.test_case "surge scales load" `Quick playout_surge_scales_load;
    Alcotest.test_case "loop rejects bad origin" `Quick loop_rejects_bad_origin;
    Alcotest.test_case "pipeline resil wiring" `Quick pipeline_resil_wiring;
    Alcotest.test_case "canned scenarios validate" `Quick canned_scenarios_validate;
  ]
