(* The serving engine: one event loop that drives a fleet with the
   time-sorted rows of the request store (Vod_workload.Trace),
   in either of two configurations.

   - Direct: every request is served by the fleet's own choice over the
     precomputed shortest paths, with no fault timeline and no capacity
     tracking (the paper's Sec. VII-A playout).
   - Faulted: a fault timeline advances between requests,
     rejected/failover/degradation accounting applies, and remote
     streams route through the capacity-aware failover router.

   The two bodies stay separate on purpose: direct serving goes through
   [Fleet.serve]; faulted serving calls its steps in turn
   ([Fleet.serve_local], then [Router.route] from
   [Fleet.default_server], then [Fleet.fetch] from the routed server),
   so with an empty schedule and infinite capacity the faulted
   configuration cross-checks the direct one (test/test_resil.ml). They
   share the served-outcome accounting below. Their metrics match the
   recorded outputs of the engines this loop replaced (test/golden/).
   The placement source is the mutable [fleet] (swapped mid-run by the
   re-placement daemon via [set_fleet]); the
   router/capacity pair arrives bundled in an optional
   [Vod_resil.Playout.config]. *)

module Obs = Vod_obs.Obs
module Event = Vod_resil.Event
module State = Vod_resil.State
module Capacity = Vod_resil.Capacity
module Router = Vod_resil.Router
module Playout = Vod_resil.Playout
module Metrics = Vod_sim.Metrics
module Fleet = Vod_cache.Fleet
module Trace = Vod_workload.Trace
module Video = Vod_workload.Video

let src = Logs.Src.create "vod.serve" ~doc:"serving engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Fault-mode machinery and the open event window. [on_event] is built
   once with the record, so advancing the timeline per request allocates
   no closure (alloc-in-hot). *)
type faulted = {
  state : State.t;
  capacity : Capacity.t;
  router : Router.t;
  on_event : Event.t -> unit;
  mutable win_t0 : float;
  mutable win_trigger : string;
  mutable win_requests : int;
  mutable win_rejections : int;
  mutable win_failovers : int;
  mutable windows_rev : Playout.window list;
}

type t = {
  paths : Vod_topology.Paths.t;
  catalog : Vod_workload.Catalog.t;
  mutable fleet : Fleet.t;
  faulted : faulted option;
  mutable finished : bool;
}

let close_window f ~now_s ~trigger =
  f.windows_rev <-
    {
      Playout.t0_s = f.win_t0;
      t1_s = now_s;
      trigger = f.win_trigger;
      requests = f.win_requests;
      rejections = f.win_rejections;
      failovers = f.win_failovers;
    }
    :: f.windows_rev;
  Obs.push "serve/window/requests" (float_of_int f.win_requests);
  Obs.push "serve/window/rejections" (float_of_int f.win_rejections);
  Obs.push "serve/window/failovers" (float_of_int f.win_failovers);
  f.win_t0 <- now_s;
  f.win_trigger <- trigger;
  f.win_requests <- 0;
  f.win_rejections <- 0;
  f.win_failovers <- 0

let apply_event f (e : Event.t) =
  Obs.incr "serve/events_applied";
  (match e.Event.kind with
  | Event.Link_down _ | Event.Link_up _ -> Router.on_link_event f.router
  | Event.Vho_down _ | Event.Vho_up _ | Event.Surge_start _ | Event.Surge_end _
    -> ());
  close_window f ~now_s:e.Event.time_s ~trigger:(Event.kind_to_string e.Event.kind)

let create ~graph ~paths ~catalog ~fleet ?resil () =
  let faulted =
    Option.map
      (fun (cfg : Playout.config) ->
        let n_vhos = Vod_topology.Graph.n_nodes graph in
        let n_links = Vod_topology.Graph.n_links graph in
        Playout.validate cfg ~n_vhos ~n_links;
        let state = State.create ~n_vhos ~n_links cfg.Playout.schedule in
        let capacity =
          Capacity.create
            ~capacity_mbps:(Array.make n_links cfg.Playout.link_capacity_mbps)
        in
        let router =
          Router.create ~graph ~paths ~state ~capacity ?origin:cfg.Playout.origin
            ()
        in
        let rec f =
          {
            state;
            capacity;
            router;
            on_event = (fun e -> apply_event f e);
            win_t0 = 0.0;
            win_trigger = "start";
            win_requests = 0;
            win_rejections = 0;
            win_failovers = 0;
            windows_rev = [];
          }
        in
        f)
      resil
  in
  { paths; catalog; fleet; faulted; finished = false }

(* Placement-source seam: the daemon swaps placements mid-run by
   handing the loop a rebuilt fleet between batches. *)
let set_fleet t fleet =
  t.fleet <- fleet;
  Obs.incr "serve/fleet_swaps"

let vho_up t vho =
  match t.faulted with None -> true | Some f -> State.vho_up f.state vho

(* Apply the fault events due by [now] and release the stream
   reservations that ended by then. *)
let advance_faults f ~now =
  ignore (State.advance f.state ~now ~on_event:f.on_event : int);
  Capacity.expire f.capacity ~now

(* Advance the fault timeline (and expire stream reservations) to [now]
   without playing a request — the daemon calls this at replan
   boundaries so its fault-state reads reflect the boundary instant,
   not the last played request. No-op in the direct configuration. *)
let advance t ~now =
  match t.faulted with None -> () | Some f -> advance_faults f ~now

(* ---- served-outcome accounting (both configurations) ----------------- *)

(* Hoisted out of the request loop (alloc-in-hot): a local definition
   per request would allocate a closure per request. *)
let count_request metrics ~vho =
  metrics.Metrics.requests <- metrics.Metrics.requests + 1;
  metrics.Metrics.per_vho_requests.(vho) <-
    metrics.Metrics.per_vho_requests.(vho) + 1

(* A recorded request some replica served: the request itself, then the
   local/remote split and its cache counters. *)
let count_served metrics ~vho (outcome : Fleet.outcome) =
  count_request metrics ~vho;
  if outcome.Fleet.local then begin
    metrics.Metrics.local_served <- metrics.Metrics.local_served + 1;
    metrics.Metrics.per_vho_local.(vho) <-
      metrics.Metrics.per_vho_local.(vho) + 1;
    if outcome.Fleet.cache_hit then
      metrics.Metrics.cache_hits <- metrics.Metrics.cache_hits + 1
  end
  else begin
    metrics.Metrics.remote_served <- metrics.Metrics.remote_served + 1;
    if outcome.Fleet.not_cachable then
      metrics.Metrics.not_cachable <- metrics.Metrics.not_cachable + 1
  end

(* A remote stream of video [v] started at [now]: its rate onto every
   link of its path for the playback and, when recorded, its transfer
   volume. [surge] scales rate and size; the direct configuration passes
   1.0, and x *. 1.0 = x exactly, so both configurations keep one float
   operation order. *)
let add_remote metrics ~record ~links ~hops ~surge ~now (v : Video.t) =
  let rate = Video.rate_mbps v *. surge in
  Metrics.add_stream metrics ~links ~rate_mbps:rate ~t0:now
    ~t1:(now +. Video.duration_s v);
  if record then begin
    let hops = float_of_int hops in
    let gb = Video.size_gb v *. surge in
    metrics.Metrics.total_gb_hops <-
      metrics.Metrics.total_gb_hops +. (gb *. hops);
    metrics.Metrics.total_gb_remote <- metrics.Metrics.total_gb_remote +. gb
  end

(* ---- direct configuration -------------------------------------------- *)

let play_direct t metrics (trace : Trace.t) ~lo ~hi =
  for i = lo to hi - 1 do
    let now = Trace.time trace i in
    let video = Trace.video trace i in
    let vho = Trace.vho trace i in
    let outcome = Fleet.serve t.fleet ~video ~vho ~now in
    let record = Metrics.in_record_window metrics now in
    if record then count_served metrics ~vho outcome;
    if not outcome.Fleet.local then begin
      let server = outcome.Fleet.server in
      add_remote metrics ~record
        ~links:(Vod_topology.Paths.path_links t.paths ~src:server ~dst:vho)
        ~hops:(Vod_topology.Paths.hops t.paths ~src:server ~dst:vho)
        ~surge:1.0 ~now
        (Vod_workload.Catalog.video t.catalog video)
    end
  done

(* ---- faulted configuration ------------------------------------------- *)

(* A recorded request nobody served, for [reason]. *)
let reject f metrics ~vho (reason : Router.reject_reason) =
  count_request metrics ~vho;
  let deg = metrics.Metrics.deg in
  deg.Metrics.rejections <- deg.Metrics.rejections + 1;
  (match reason with
  | Router.Vho_down ->
      deg.Metrics.rejected_vho_down <- deg.Metrics.rejected_vho_down + 1
  | Router.No_replica ->
      deg.Metrics.rejected_no_replica <- deg.Metrics.rejected_no_replica + 1
  | Router.Unreachable ->
      deg.Metrics.rejected_unreachable <- deg.Metrics.rejected_unreachable + 1
  | Router.No_capacity ->
      deg.Metrics.rejected_no_capacity <- deg.Metrics.rejected_no_capacity + 1);
  Obs.incr "serve/rejections";
  Obs.incr ("serve/rejections/" ^ Router.reject_reason_to_string reason);
  f.win_rejections <- f.win_rejections + 1

(* Degradation and telemetry of a recorded, served remote stream. *)
let count_route f metrics ~surge (s : Router.served) =
  let deg = metrics.Metrics.deg in
  if surge > 1.0 then Obs.incr "serve/surged_streams";
  if s.Router.failover then begin
    deg.Metrics.failovers <- deg.Metrics.failovers + 1;
    deg.Metrics.failover_extra_hops <-
      deg.Metrics.failover_extra_hops + s.Router.extra_hops;
    f.win_failovers <- f.win_failovers + 1;
    Obs.incr "serve/failovers";
    if s.Router.extra_hops > 0 then
      Obs.incr ~by:s.Router.extra_hops "serve/failover_extra_hops"
  end;
  if s.Router.via_origin then begin
    deg.Metrics.origin_served <- deg.Metrics.origin_served + 1;
    Obs.incr "serve/origin_served"
  end

let play_faulted t f metrics (trace : Trace.t) ~lo ~hi =
  for i = lo to hi - 1 do
    let now = Trace.time trace i in
    let video = Trace.video trace i in
    let vho = Trace.vho trace i in
    advance_faults f ~now;
    let record = Metrics.in_record_window metrics now in
    if record then f.win_requests <- f.win_requests + 1;
    if not (State.vho_up f.state vho) then begin
      (* The requesting VHO is dark: nobody there to serve. *)
      if record then reject f metrics ~vho Router.Vho_down
    end
    else
      match Fleet.serve_local t.fleet ~video ~vho ~now with
      | Some outcome ->
          if record then count_served metrics ~vho outcome
      | None -> (
          let v = Vod_workload.Catalog.video t.catalog video in
          let surge = State.surge f.state vho in
          match
            Router.route f.router ~holders:(Fleet.holders t.fleet ~video)
              ~n_holders:(Fleet.n_holders t.fleet ~video) ~dst:vho
              ~default:(Fleet.default_server t.fleet ~video ~vho)
              ~rate_mbps:(Video.rate_mbps v *. surge)
              ~until_s:(now +. Video.duration_s v) ~now
          with
          | Router.Served s ->
              let outcome =
                Fleet.fetch t.fleet ~video ~vho ~now ~server:s.Router.server
              in
              if record then count_served metrics ~vho outcome;
              add_remote metrics ~record ~links:s.Router.links
                ~hops:s.Router.hops ~surge ~now v;
              if record then count_route f metrics ~surge s
          | Router.Rejected reason ->
              if record then reject f metrics ~vho reason)
  done

(* ---- entry points ----------------------------------------------------- *)

(* Play rows [lo, hi) of a store through whichever configuration
   the loop was created with. *)
let play_soa t metrics (trace : Trace.t) ~lo ~hi =
  if lo < 0 || hi < lo || hi > Trace.length trace then
    invalid_arg "Loop.play_soa: range out of bounds";
  Metrics.validate_store metrics trace;
  if Obs.active () then Obs.incr ~by:(hi - lo) "serve/requests";
  match t.faulted with
  | None -> play_direct t metrics trace ~lo ~hi
  | Some f -> play_faulted t f metrics trace ~lo ~hi

(* Drain the remaining schedule, close saturation intervals and the last
   window, and publish the end-of-run gauges. Idempotent; a no-op in the
   direct configuration, which has no timeline to drain. *)
let finish t (metrics : Metrics.t) =
  if not t.finished then begin
    t.finished <- true;
    match t.faulted with
    | None -> ()
    | Some f ->
        let horizon =
          float_of_int metrics.Metrics.n_bins *. metrics.Metrics.bin_s
        in
        advance_faults f ~now:horizon;
        Capacity.finish f.capacity ~now:horizon;
        metrics.Metrics.deg.Metrics.link_saturated_s <-
          Capacity.saturated_seconds f.capacity;
        Obs.set_gauge "serve/link_saturated_seconds"
          (Capacity.saturated_seconds f.capacity);
        close_window f ~now_s:horizon ~trigger:"end"
  end

let windows t =
  match t.faulted with None -> [] | Some f -> List.rev f.windows_rev

(* One-shot playout of a full store over its whole horizon. *)
let run_soa ~graph ~paths ~catalog ~fleet ~store ?(bin_s = 300.0)
    ?(record_from = 0.0) ?resil () =
  let horizon_s =
    float_of_int store.Trace.days *. Trace.seconds_per_day
  in
  let metrics =
    Metrics.create
      ~n_links:(Vod_topology.Graph.n_links graph)
      ~n_vhos:(Vod_topology.Graph.n_nodes graph)
      ~horizon_s ~bin_s ~record_from ()
  in
  let t = create ~graph ~paths ~catalog ~fleet ?resil () in
  (* [play_soa] can raise (store validation); [finish] is idempotent, so
     settling the capacity ledger under Fun.protect keeps the normal
     path byte-identical while closing it on the exceptional one. *)
  Fun.protect
    ~finally:(fun () -> finish t metrics)
    (fun () -> play_soa t metrics store ~lo:0 ~hi:(Trace.length store));
  Log.info (fun m ->
      m "%s: %d requests, local %.1f%%, %d rejections, peak link %.0f Mb/s"
        (Fleet.name fleet) metrics.Metrics.requests
        (100.0 *. Metrics.local_fraction metrics)
        metrics.Metrics.deg.Metrics.rejections
        (Metrics.max_link_mbps metrics));
  (metrics, windows t)
