(* Demand estimation (paper Sec. VI-A).

   Every strategy produces a *predicted week of requests* for the
   upcoming placement period, as a trace whose time 0 is the period's
   start; Demand.of_soa then turns it into the MIP's (a, f) inputs.
   Unifying prediction as "a synthetic trace" keeps peak-window
   selection and concurrency extraction identical across strategies.

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

(* Most-requested movie (1 h / 2 h classes) among rows [lo, hi); the
   donor demand pattern for blockbusters. *)
let top_movie (catalog : Catalog.t) trace ~lo ~hi =
  let counts = Hashtbl.create 1024 in
  for i = lo to hi - 1 do
    let video = Trace.video trace i in
    match (Catalog.video catalog video).Video.size_class with
    | Video.Movie | Video.Long_movie ->
        let c = Option.value ~default:0 (Hashtbl.find_opt counts video) in
        Hashtbl.replace counts video (c + 1)
    | Video.Clip | Video.Show -> ()
  done;
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

(* Prediction for the placement period starting at [t0_s]: the source
   window (the coming week itself for the oracle, else the [history_s]
   seconds before [t0_s]) is shifted onto the period and rebased to its
   start; the release window stays one week from [t0_s] (the paper's
   placement period). At day-aligned [t0_s] with the default week of
   history the day bounds, the week shift and the release test are all
   exact in float arithmetic, so the batch pipeline's weekly updates see
   exactly last week's requests. *)
let predict_at ?(history_s = week_s) strategy (catalog : Catalog.t)
    (trace : Trace.t) ~t0_s =
  let shift_s, (lo, hi) =
    match strategy with
    | Perfect -> (0.0, Trace.between trace ~t0_s ~t1_s:(t0_s +. week_s))
    | History_only | Series_blockbuster ->
        (history_s, Trace.between trace ~t0_s:(t0_s -. history_s) ~t1_s:t0_s)
  in
  let week =
    Trace.Builder.create ~capacity:(hi - lo) ~n_vhos:trace.Trace.n_vhos ~days:7 ()
  in
  (* Source row [i] as a request for [video] in the predicted week. *)
  let add i ~video =
    let ts = (Trace.time trace i +. shift_s) -. t0_s in
    if ts >= 0.0 && ts < week_s then
      Trace.Builder.add week ~time_s:ts ~vho:(Trace.vho trace i) ~video
  in
  let clone ~src ~dst =
    for i = lo to hi - 1 do
      if Trace.video trace i = src then add i ~video:dst
    done
  in
  for i = lo to hi - 1 do
    add i ~video:(Trace.video trace i)
  done;
  (match strategy with
  | Series_blockbuster ->
      let donor = lazy (top_movie catalog trace ~lo ~hi) in
      Array.iter
        (fun v ->
          let release_s = float_of_int v.Video.release_day *. Trace.seconds_per_day in
          if release_s >= t0_s && release_s < t0_s +. week_s then
            match v.Video.kind with
            | Video.Episode _ ->
                Option.iter
                  (fun prev -> clone ~src:prev.Video.id ~dst:v.Video.id)
                  (Catalog.previous_episode catalog v)
            | Video.Blockbuster ->
                Option.iter (fun src -> clone ~src ~dst:v.Video.id) (Lazy.force donor)
            | Video.Regular | Video.Music_video -> ())
        catalog.Catalog.videos
  | History_only | Perfect -> ());
  Trace.Builder.finish week

let name = function
  | History_only -> "no-estimate"
  | Series_blockbuster -> "series+blockbuster"
  | Perfect -> "perfect"
