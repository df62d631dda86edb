(* Trace-analytics experiments: the paper's motivation figures.

   Fig. 2 — working-set size during peak hours, per VHO, as a fraction of
            the library (both video count and disk space).
   Fig. 3 — cosine similarity of the request mix between the peak interval
            and the previous interval, versus time-window size.
   Fig. 4 — daily request counts for consecutive episodes of one series. *)

let fig2_working_set (sc : Vod_core.Scenario.t) =
  Common.section "Fig. 2 — working-set size during peak hours";
  let trace = sc.Vod_core.Scenario.trace in
  let catalog = sc.Vod_core.Scenario.catalog in
  let peak = Vod_workload.Stats.peak_hour_start_s trace in
  let n = Vod_topology.Graph.n_nodes sc.Vod_core.Scenario.graph in
  let lib_gb = Vod_workload.Catalog.total_size_gb catalog in
  let lib_n = float_of_int (Vod_workload.Catalog.n_videos catalog) in
  let rows = ref [] in
  let fracs = ref [] in
  for vho = 0 to n - 1 do
    let distinct, gb =
      Vod_workload.Stats.working_set trace catalog ~vho ~t0:peak ~t1:(peak +. 3600.0)
    in
    fracs := (float_of_int distinct /. lib_n, gb /. lib_gb) :: !fracs
  done;
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare b a) !fracs in
  List.iteri
    (fun rank (video_frac, gb_frac) ->
      if rank < 10 || rank mod 5 = 0 then
        rows :=
          [ string_of_int (rank + 1); Common.fmt_pct video_frac; Common.fmt_pct gb_frac ]
          :: !rows)
    sorted;
  Vod_util.Table.print
    ~header:[ "VHO rank"; "working set (videos)"; "working set (disk)" ]
    (List.rev !rows);
  let max_frac = List.fold_left (fun acc (v, _) -> Float.max acc v) 0.0 sorted in
  Common.note
    "paper: max ~25%% of library; ~10 VHOs above 1/8. measured max: %s"
    (Common.fmt_pct max_frac)

let fig3_cosine (sc : Vod_core.Scenario.t) =
  Common.section "Fig. 3 — request-mix similarity vs window size";
  let trace = sc.Vod_core.Scenario.trace in
  let windows =
    [ ("30 min", 1800.0); ("1 hour", 3600.0); ("4 hours", 14_400.0); ("1 day", 86_400.0) ]
  in
  let rows =
    List.map
      (fun (label, w) ->
        (* n/a: the peak falls in the first window, with none before it. *)
        label
        ::
        (match Vod_workload.Stats.peak_interval_similarity trace ~window_s:w with
        | Some sims ->
            List.map
              (fun f -> Printf.sprintf "%.3f" (f sims))
              Vod_util.Stats_acc.[ mean; min_elt; max_elt ]
        | None -> [ "n/a"; "n/a"; "n/a" ]))
      windows
  in
  Vod_util.Table.print ~header:[ "window"; "mean cos-sim"; "min"; "max" ] rows;
  Common.note
    "paper: similarity high at day granularity, drops sharply for short windows."

let fig4_series (sc : Vod_core.Scenario.t) =
  Common.section "Fig. 4 — daily requests for episodes of one series";
  let trace = sc.Vod_core.Scenario.trace in
  let catalog = sc.Vod_core.Scenario.catalog in
  (* Pick the series whose in-trace episodes collect the most requests. *)
  let counts = Vod_workload.Trace.counts_per_video trace ~n_videos:(Vod_workload.Catalog.n_videos catalog) in
  let best_series = ref 0 and best_count = ref (-1) in
  for s = 0 to catalog.Vod_workload.Catalog.n_series - 1 do
    let total =
      List.fold_left
        (fun acc (v : Vod_workload.Video.t) ->
          if v.Vod_workload.Video.release_day > 0 then acc + counts.(v.Vod_workload.Video.id)
          else acc)
        0
        (Vod_workload.Catalog.series_episodes catalog s)
    in
    if total > !best_count then begin
      best_count := total;
      best_series := s
    end
  done;
  let episodes =
    Vod_workload.Catalog.series_episodes catalog !best_series
    |> List.filter (fun (v : Vod_workload.Video.t) -> v.Vod_workload.Video.release_day >= 0)
  in
  let header = "day" :: List.map (fun (v : Vod_workload.Video.t) ->
      match v.Vod_workload.Video.kind with
      | Vod_workload.Video.Episode e -> Printf.sprintf "ep%d" e.episode
      | _ -> "?") episodes in
  let dailies =
    List.map (fun (v : Vod_workload.Video.t) ->
        Vod_workload.Stats.daily_counts trace ~video:v.Vod_workload.Video.id)
      episodes
  in
  let rows = ref [] in
  for day = 0 to trace.Vod_workload.Trace.days - 1 do
    let row = string_of_int day :: List.map (fun d -> string_of_int d.(day)) dailies in
    rows := row :: !rows
  done;
  Vod_util.Table.print ~header (List.rev !rows);
  Common.note
    "paper: consecutive episodes show similar volume with a release-day spike — the basis of the series demand estimator."

let run sc =
  fig2_working_set sc;
  fig3_cosine sc;
  fig4_series sc
