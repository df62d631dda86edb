(* Ready-made experiment scenarios: a topology, a catalog and a month-long
   trace, wired together the way the paper's evaluation sets them up
   (Sec. VII-A): a 55-VHO backbone, population-proportional demand, and an
   aggregate disk budget expressed as a multiple of the library size. *)

type t = {
  graph : Vod_topology.Graph.t;
  paths : Vod_topology.Paths.t;
  catalog : Vod_workload.Catalog.t;
  trace : Vod_workload.Trace.t;
}

let make ?(days = 28) ?(requests_per_video_per_day = 5.0) ?(seed = 42)
    ?(jobs = 0) ~graph ~n_videos () =
  let catalog =
    Vod_workload.Catalog.generate
      (Vod_workload.Catalog.default_params ~n:n_videos ~days ~seed:(seed + 1))
  in
  let p =
    Vod_workload.Tracegen.default_params ~catalog
      ~populations:graph.Vod_topology.Graph.populations
      ~mean_daily_requests:(requests_per_video_per_day *. float_of_int n_videos)
      ~seed:(seed + 2)
  in
  let trace = Vod_workload.Tracegen.generate ~jobs p in
  let paths = Vod_topology.Paths.compute graph in
  { graph; paths; catalog; trace }

(* The paper's default setting: the 55-VHO backbone. *)
let backbone ?days ?requests_per_video_per_day ?(seed = 42) ?jobs ~n_videos
    () =
  let graph = Vod_topology.Topologies.backbone55 () in
  make ?days ?requests_per_video_per_day ~seed ?jobs ~graph ~n_videos ()

let library_gb t = Vod_workload.Catalog.total_size_gb t.catalog

(* Uniform per-VHO disk with aggregate = [multiple] x library size. *)
let uniform_disk t ~multiple =
  let n = Vod_topology.Graph.n_nodes t.graph in
  Vod_placement.Instance.uniform_disk ~total_gb:(multiple *. library_gb t) n

(* The paper's heterogeneous split (Sec. VII-C): large VHOs have twice the
   disk of medium ones, which have twice the disk of small ones; class
   sizes 12 / 19 / 24 scaled to the node count, classes assigned by
   population rank. *)
let hetero_disk t ~multiple =
  let n = Vod_topology.Graph.n_nodes t.graph in
  let total = multiple *. library_gb t in
  let order = Vod_topology.Topologies.top_population_nodes t.graph n in
  let n_large = max 1 (n * 12 / 55) in
  let n_medium = max 1 (n * 19 / 55) in
  let weight = Array.make n 1.0 in
  Array.iteri
    (fun rank vho ->
      weight.(vho) <- (if rank < n_large then 4.0 else if rank < n_large + n_medium then 2.0 else 1.0))
    order;
  let wsum = Array.fold_left ( +. ) 0.0 weight in
  Array.map (fun w -> total *. w /. wsum) weight

(* ---------- canned fault scenarios ----------

   Mirrors the TON'16 robustness analysis of the placement paper: a
   single VHO failure, a correlated site failure (a VHO, its lowest-id
   neighbor and the links between them), and a flash crowd. The fault
   window is placed relative to the trace length — start at 40% of the
   horizon, last 30% — so it lands inside the recorded window of both
   short smoke runs and full-length traces. *)

let default_fault_vho t = (Vod_topology.Topologies.top_population_nodes t.graph 1).(0)

let fault_window t =
  let horizon =
    float_of_int t.trace.Vod_workload.Trace.days *. Vod_workload.Trace.seconds_per_day
  in
  (0.4 *. horizon, 0.7 *. horizon)

let single_vho_outage ?vho t =
  let vho = match vho with Some v -> v | None -> default_fault_vho t in
  let t0, t1 = fault_window t in
  Vod_resil.Event.create
    [
      { Vod_resil.Event.time_s = t0; kind = Vod_resil.Event.Vho_down vho };
      { Vod_resil.Event.time_s = t1; kind = Vod_resil.Event.Vho_up vho };
    ]

(* The target VHO, its lowest-id neighbor and both directed links between
   them all fail together (a site plus its conduit). *)
let correlated_outage ?vho t =
  let vho = match vho with Some v -> v | None -> default_fault_vho t in
  let neighbor, out_link =
    Array.fold_left
      (fun best lid ->
        let dst = (Vod_topology.Graph.link t.graph lid).Vod_topology.Graph.dst in
        match best with
        | Some (nb, _) when nb <= dst -> best
        | Some _ | None -> Some (dst, lid))
      None t.graph.Vod_topology.Graph.out_links.(vho)
    |> function
    | Some pair -> pair
    | None -> invalid_arg "Scenario.correlated_outage: target VHO has no links"
  in
  let back_link = Vod_topology.Graph.reverse_link t.graph out_link in
  let t0, t1 = fault_window t in
  Vod_resil.Event.create
    [
      { Vod_resil.Event.time_s = t0; kind = Vod_resil.Event.Vho_down vho };
      { Vod_resil.Event.time_s = t0; kind = Vod_resil.Event.Vho_down neighbor };
      { Vod_resil.Event.time_s = t0; kind = Vod_resil.Event.Link_down out_link };
      { Vod_resil.Event.time_s = t0; kind = Vod_resil.Event.Link_down back_link };
      { Vod_resil.Event.time_s = t1; kind = Vod_resil.Event.Vho_up vho };
      { Vod_resil.Event.time_s = t1; kind = Vod_resil.Event.Vho_up neighbor };
      { Vod_resil.Event.time_s = t1; kind = Vod_resil.Event.Link_up out_link };
      { Vod_resil.Event.time_s = t1; kind = Vod_resil.Event.Link_up back_link };
    ]

(* A quarter-day demand spike at the target VHO. *)
let flash_crowd ?vho ?(factor = 3.0) t =
  let vho = match vho with Some v -> v | None -> default_fault_vho t in
  let t0, _ = fault_window t in
  let t1 = t0 +. (0.25 *. Vod_workload.Trace.seconds_per_day) in
  Vod_resil.Event.create
    [
      { Vod_resil.Event.time_s = t0; kind = Vod_resil.Event.Surge_start { vho; factor } };
      { Vod_resil.Event.time_s = t1; kind = Vod_resil.Event.Surge_end vho };
    ]

(* Demand inputs for a one-week placement period starting at [day0], from
   actual trace requests (bootstrap / oracle use). *)
let demand_of_week t ~day0 ?(n_windows = 2) ?(window_s = 3600.0) () =
  let spd = Vod_workload.Trace.seconds_per_day in
  let lo, hi =
    Vod_workload.Trace.between t.trace
      ~t0_s:(float_of_int day0 *. spd)
      ~t1_s:(float_of_int (day0 + 7) *. spd)
  in
  Vod_workload.Demand.of_soa t.catalog
    ~n_vhos:(Vod_topology.Graph.n_nodes t.graph)
    ~day0 ~days:7 ~n_windows ~window_s t.trace ~lo ~hi
