(* Shared infrastructure for the benchmark harness: scenario scales,
   timing helpers and report formatting. Every experiment regenerates one
   of the paper's figures or tables (see DESIGN.md's experiment index);
   EXPERIMENTS.md records paper-vs-measured values. *)

type scale = Quick | Default | Full | Huge

let scale =
  match Sys.getenv_opt "VOD_SCALE" with
  | Some "quick" -> Quick
  | Some "full" -> Full
  | Some "huge" -> Huge
  | Some _ | None -> Default

let scale_name =
  match scale with
  | Quick -> "quick"
  | Default -> "default"
  | Full -> "full"
  | Huge -> "huge"

(* Library size used by the simulation-driven experiments. The paper
   plays a month of an operational trace against 55 VHOs; we scale the
   synthetic trace so that a solve takes seconds and the playout minutes
   on one core. The huge tier keeps the comparative exhibits at the full
   size — its million-video end-to-end run is a dedicated exhibit
   (exp_scaling) over the columnar request store, not a scaling
   of every figure. *)
let sim_videos =
  match scale with Quick -> 600 | Default -> 2000 | Full | Huge -> 5000

(* The huge tier's catalog: a million videos, the paper's "very large
   library" regime (Sec. VIII discusses libraries of this order). *)
let huge_videos = 1_000_000

(* Upper bisection bound for minimum-feasible-link-capacity searches
   (Table V and friends). Demand grows with the tier's request volume,
   so the bound — and the ">BOUND" infeasibility label derived from it —
   scales with the tier instead of hard-coding one ceiling. *)
let feasibility_hi_mbps =
  match scale with Quick | Default | Full -> 200_000.0 | Huge -> 2_000_000.0

let requests_per_video_per_day = 13.0

let days = 28

(* Engine parameter presets. *)
let solve_params =
  {
    Vod_epf.Engine.default_params with
    Vod_epf.Engine.max_passes = (match scale with Quick -> 25 | _ -> 50);
  }

let probe_params =
  {
    Vod_placement.Feasibility.default_probe_params with
    Vod_epf.Engine.max_passes = (match scale with Quick -> 10 | _ -> 18);
  }

let mip_config =
  { Vod_core.Pipeline.default_mip with Vod_core.Pipeline.engine = solve_params }

let backbone_scenario ?(n_videos = sim_videos) ?(seed = 42) () =
  Vod_core.Scenario.backbone ~days ~requests_per_video_per_day ~seed ~n_videos ()

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Run independent playout thunks across the domain pool, results in
   list order (each element usually a (result, seconds) pair from
   [timed]). The thunks must not print — the per-fleet playouts write
   only into their own metrics — so format tables after collecting.
   The pool is capped at the thunk count; a MIP playout's solver may
   still open its own inner pool, which is bounded oversubscription,
   not a correctness issue (results are deterministic per scheme). *)
let parallel_runs thunks =
  let arr = Array.of_list thunks in
  let jobs = min (Vod_util.Pool.default_jobs ()) (max 1 (Array.length arr)) in
  Vod_util.Pool.with_pool ~jobs (fun pool ->
      Vod_util.Pool.map pool ~f:(fun f -> f ()) arr)
  |> Array.to_list

let fmt_gbps mbps = Printf.sprintf "%.2f" (mbps /. 1000.0)

let fmt_pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

(* Pipeline configuration used by the comparative experiments. The link
   capacity given to the MIP is calibrated per scenario (the paper uses
   1 Gb/s because that is where its demand binds). *)
let pipeline_config ?(disk_multiple = 2.0) ?(link_capacity_mbps = 1000.0)
    (scenario : Vod_core.Scenario.t) =
  let disk = Vod_core.Scenario.uniform_disk scenario ~multiple:disk_multiple in
  Vod_core.Pipeline.default_config ~scenario ~disk_gb:disk ~link_capacity_mbps

(* Calibrate the MIP's link-capacity constraint: the smallest uniform
   capacity for which the bootstrap week is epsilon-feasible, rounded up
   a little. This mirrors the paper's choice of a capacity that actually
   binds (Sec. VII-B). *)
let calibrate_link_capacity (scenario : Vod_core.Scenario.t) ~disk_multiple =
  let demand = Vod_core.Scenario.demand_of_week scenario ~day0:0 in
  let disk =
    Array.map
      (fun d -> d *. 0.95)
      (Vod_core.Scenario.uniform_disk scenario ~multiple:disk_multiple)
  in
  match
    Vod_placement.Feasibility.min_link_capacity ~params:probe_params ~lo:20.0
      ~hi:20_000.0 ~tol:0.1 ~graph:scenario.Vod_core.Scenario.graph
      ~catalog:scenario.Vod_core.Scenario.catalog ~demand ~disk_gb:disk ()
  with
  | Some mbps -> 1.15 *. mbps
  | None -> 2_000.0
