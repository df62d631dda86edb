(* Synthetic video catalog.

   Composition follows the paper's trace description (Sec. VII-A: "music
   videos and trailers, TV shows, and full-length movies") and its
   new-content analysis (Sec. VI-A: a significant share of new releases are
   weekly TV-series episodes, plus 1-3 blockbusters per week). Popularity
   is Zipf with an exponential cutoff, the shape Cha et al. report for
   YouTube and the distribution the paper uses for its synthetic traces. *)

type t = {
  videos : Video.t array;
  n_series : int;
  trace_days : int;
}

let n_videos t = Array.length t.videos

let video t id = t.videos.(id)

let total_size_gb t =
  Array.fold_left (fun acc v -> acc +. Video.size_gb v) 0.0 t.videos

(* Zipf-with-exponential-cutoff weight for popularity rank [r] (0-based)
   out of [n]: w(r) = (r+1)^-a * exp(-r / (c*n)). Cha et al. report a in
   [0.8, 1.0] with a cutoff around the 20-40% most popular mark. *)
let zipf_cutoff_weight ~exponent ~cutoff_frac ~n r =
  let r1 = float_of_int (r + 1) in
  (r1 ** -.exponent) *. exp (-.float_of_int r /. (cutoff_frac *. float_of_int n))

type params = {
  n : int;             (* catalog size *)
  days : int;          (* trace length in days *)
  seed : int;
}

let default_params ~n ~days ~seed = { n; days; seed }

(* The paper's synthetic workload (Sec. VII-A), the same for every
   catalog: Zipf exponent 0.8 cut off at 35% of the catalog, a quarter
   of it series episodes (12 per series), 30% clips, the rest movies,
   and 2 blockbusters released per trace week. *)
let zipf_exponent = 0.8
let zipf_cutoff = 0.35
let series_frac = 0.25
let clip_frac = 0.30
let episodes_per_series = 12
let blockbusters_per_week = 2

let generate (p : params) =
  if p.n <= 0 then invalid_arg "Catalog.generate: empty catalog";
  let rng = Vod_util.Rng.create p.seed in
  (* Popularity rank is assigned by a random permutation so that video id
     carries no popularity information. *)
  let rank_of = Vod_util.Rng.permutation rng p.n in
  let weights =
    Array.init p.n (fun id ->
        zipf_cutoff_weight ~exponent:zipf_exponent ~cutoff_frac:zipf_cutoff ~n:p.n
          rank_of.(id))
  in
  let n_series_videos = int_of_float (series_frac *. float_of_int p.n) in
  let n_clip = int_of_float (clip_frac *. float_of_int p.n) in
  let n_series = max 1 (n_series_videos / episodes_per_series) in
  let weeks = max 1 (p.days / 7) in
  (* Videos [0, n_series_videos) are series episodes; series s owns a
     contiguous run of episodes released weekly. Recent episodes (those
     released during the trace) are marked accordingly. *)
  let bb_count = ref 0 in
  let videos =
    Array.init p.n (fun id ->
        if id < n_series_videos then begin
          let series = id mod n_series in
          let episode = id / n_series in
          (* Each series releases one episode per week; the last [weeks]
             episodes of each series fall inside the trace window. *)
          let total_eps = (n_series_videos + n_series - 1) / n_series in
          let weeks_before_end = total_eps - 1 - episode in
          (* Only every other series is "in season" (releasing weekly
             during the trace); the rest are back-catalog. Episodes drop
             on Fridays (weekday 4), like most prime-time series;
             release_day <= 0 means the episode predates the trace. *)
          let in_season = series mod 2 = 0 in
          let release_day =
            if in_season then ((weeks - 1 - weeks_before_end) * 7) + 4 else 0
          in
          {
            Video.id;
            size_class = Video.Show;
            kind = Video.Episode { series; episode };
            release_day;
            (* Episodes of one series share the series' popularity (the
               premise of Fig. 4 and of the series demand estimator):
               use the weight drawn for the series' first episode. *)
            base_weight = weights.(series);
          }
        end
        else if id < n_series_videos + n_clip then
          {
            Video.id;
            size_class = Video.Clip;
            kind = Video.Music_video;
            release_day = 0;
            base_weight = weights.(id);
          }
        else begin
          (* Remaining videos are movies; half 1 h, half 2 h. The first
             [blockbusters_per_week] long movies of each trace week are
             blockbusters released during the trace. *)
          let long = (id - n_series_videos - n_clip) mod 2 = 0 in
          let is_fresh = long && !bb_count < weeks * blockbusters_per_week in
          if is_fresh then begin
            let w = !bb_count mod weeks in
            incr bb_count;
            {
              Video.id;
              size_class = Video.Long_movie;
              kind = Video.Blockbuster;
              release_day = (w * 7) + 5 (* blockbusters drop on Saturdays *);
              base_weight = weights.(id) *. 3.0;
            }
          end
          else
            {
              Video.id;
              size_class = (if long then Video.Long_movie else Video.Movie);
              kind = Video.Regular;
              release_day = 0;
              base_weight = weights.(id);
            }
        end)
  in
  { videos; n_series; trace_days = p.days }

let series_episodes t series =
  Array.to_list t.videos
  |> List.filter (fun v ->
         match v.Video.kind with
         | Video.Episode e -> e.series = series
         | Video.Regular | Video.Music_video | Video.Blockbuster -> false)
  |> List.sort (fun a b ->
         match (a.Video.kind, b.Video.kind) with
         | Video.Episode x, Video.Episode y -> Int.compare x.episode y.episode
         | _ -> 0)

let previous_episode t v =
  match v.Video.kind with
  | Video.Episode { series; episode } when episode > 0 ->
      List.find_opt
        (fun u ->
          match u.Video.kind with
          | Video.Episode e -> e.series = series && e.episode = episode - 1
          | _ -> false)
        (series_episodes t series)
  | Video.Episode _ | Video.Regular | Video.Music_video | Video.Blockbuster ->
      None
