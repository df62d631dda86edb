(* Demand estimation (paper Sec. VI-A).

   Every strategy produces a *predicted request batch* for the upcoming
   placement period; Demand.of_requests then turns the batch into the
   MIP's (a, f) inputs. Unifying prediction as "a synthetic trace" keeps
   peak-window selection and concurrency extraction identical across
   strategies.

   - History_only    : last week's requests replayed one week later — the
                       paper's "no estimate" row (new videos get nothing).
   - Series_blockbuster : the paper's default. History, plus: a new series
                       episode inherits the previous week's episode of the
                       same series; a blockbuster released next week
                       inherits the most requested movie of last week.
   - Perfect         : oracle — the actual upcoming week's requests
                       (paper's "perfect estimate" row). *)

type strategy = History_only | Series_blockbuster | Perfect

let week_s = 7.0 *. Trace.seconds_per_day

let shift_by s (r : Trace.request) = { r with Trace.time_s = r.Trace.time_s +. s }

(* Most-requested movie (1 h / 2 h classes) of the history window; the
   donor demand pattern for blockbusters. *)
let top_movie (catalog : Catalog.t) (history : Trace.request array) =
  let counts = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      let v = Catalog.video catalog r.Trace.video in
      match v.Video.size_class with
      | Video.Movie | Video.Long_movie ->
          let c = Option.value ~default:0 (Hashtbl.find_opt counts r.Trace.video) in
          Hashtbl.replace counts r.Trace.video (c + 1)
      | Video.Clip | Video.Show -> ())
    history;
  (* Argmax over sorted video ids: ties break toward the lowest id
     instead of whatever the table's iteration order happens to be. *)
  List.fold_left
    (fun best video ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts video) in
      match best with
      | Some (_, bc) when bc >= c -> best
      | _ -> Some (video, c))
    None
    (Vod_util.Stats_acc.sorted_keys Int.compare counts)
  |> Option.map fst

(* Requests for one video in a batch, re-targeted to [new_video] and
   shifted [shift_s] forward. *)
let clone_requests (history : Trace.request array) ~shift_s ~src_video ~new_video =
  Array.to_list history
  |> List.filter_map (fun r ->
         if r.Trace.video = src_video then
           Some (shift_by shift_s { r with Trace.video = new_video })
         else None)

(* Prediction for the placement period starting at [t0_s]: the history
   window is the [history_s] seconds before [t0_s], shifted forward onto
   the upcoming period; the release window stays one week from [t0_s]
   (the paper's placement period). At day-aligned [t0_s] with the
   default week of history the day bounds, the week shift and the
   release test are all exact in float arithmetic, so the batch
   pipeline's weekly updates see exactly last week's requests. *)
let predict_at ?(history_s = week_s) strategy (catalog : Catalog.t)
    (full : Trace.t) ~t0_s =
  let history () = Trace.between full ~t0_s:(t0_s -. history_s) ~t1_s:t0_s in
  match strategy with
  | Perfect -> Trace.between full ~t0_s ~t1_s:(t0_s +. week_s)
  | History_only -> Array.map (shift_by history_s) (history ())
  | Series_blockbuster ->
      let history = history () in
      let base = Array.to_list (Array.map (shift_by history_s) history) in
      let extra = ref [] in
      Array.iter
        (fun v ->
          let release_s = float_of_int v.Video.release_day *. Trace.seconds_per_day in
          let releases_this_week =
            release_s >= t0_s && release_s < t0_s +. week_s
          in
          if releases_this_week then
            match v.Video.kind with
            | Video.Episode _ -> (
                match Catalog.previous_episode catalog v with
                | Some prev ->
                    extra :=
                      clone_requests history ~shift_s:history_s
                        ~src_video:prev.Video.id ~new_video:v.Video.id
                      @ !extra
                | None -> ())
            | Video.Blockbuster -> (
                match top_movie catalog history with
                | Some donor ->
                    extra :=
                      clone_requests history ~shift_s:history_s ~src_video:donor
                        ~new_video:v.Video.id
                      @ !extra
                | None -> ())
            | Video.Regular | Video.Music_video -> ())
        catalog.Catalog.videos;
      Array.of_list (base @ !extra)

let name = function
  | History_only -> "no-estimate"
  | Series_blockbuster -> "series+blockbuster"
  | Perfect -> "perfect"
