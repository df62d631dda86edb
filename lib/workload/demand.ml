(* The MIP's demand-side input, built from a (real or predicted) request
   trace for one placement period:

   - a_j^m : aggregate request count per (video, VHO) over the period
     (paper Table I), stored sparsely per video;
   - f_j^m(t) : concurrent-stream counts per (video, VHO) during each of
     the |T| peak windows (paper uses |T| = 2 one-hour windows). *)

type t = {
  n_videos : int;
  n_vhos : int;
  a : (int * float) array array;          (* a.(video) = [| (vho, count) |] *)
  f : (int * float) array array array;    (* f.(w).(video) = [| (vho, n) |] *)
  windows : (float * float) array;        (* [t0, t1) of each peak window *)
  total_requests : float;
}

let sparse_of_tbl ~n_videos (tbl : (int * int, int) Hashtbl.t) =
  let per_video = Array.make n_videos [] in
  Hashtbl.iter
    (fun (video, vho) count ->
      per_video.(video) <- (vho, float_of_int count) :: per_video.(video))
    tbl;
  Array.map
    (fun l ->
      let arr = Array.of_list l in
      Array.sort (fun (i, _) (j, _) -> Int.compare i j) arr;
      arr)
    per_video

let bump tbl key =
  let c = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (c + 1)

(* The peak-window selector: the [k] busiest bins first (count ties in
   the order [Array.sort] leaves them), at most one per day, as
   [window_s]-long windows, the last chosen first. *)
let peak_windows ~bins ~window_s ~k =
  let order = Array.init (Array.length bins) (fun b -> b) in
  Array.sort (fun x y -> Int.compare bins.(y) bins.(x)) order;
  let chosen = ref [] and used_days = Hashtbl.create 8 in
  (try
     Array.iter
       (fun b ->
         let day = Trace.day_of_time (float_of_int b *. window_s) in
         if not (Hashtbl.mem used_days day) then begin
           Hashtbl.add used_days day ();
           chosen := b :: !chosen;
           if List.length !chosen >= k then raise Exit
         end)
       order
   with Exit -> ());
  Array.of_list
    (List.map
       (fun b ->
         let t0 = float_of_int b *. window_s in
         (t0, t0 +. window_s))
       !chosen)

(* Concurrent-stream counts per (video, vho) during [t0, t1) over rows
   [lo, hi) whose rebased time [ts] lies in [0, horizon): a request
   counts if its playback interval [ts, ts + duration) meets the window.
   With a 1-second window this is instantaneous concurrency; with a
   1-day window it over-counts — exactly the over-provisioning effect
   the paper studies in Table V. *)
let concurrency catalog trace ~lo ~hi ~base ~horizon ~n_videos (t0, t1) =
  let tbl : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  for i = lo to hi - 1 do
    let ts = Trace.time trace i -. base in
    if ts >= 0.0 && ts < horizon then begin
      let video = Trace.video trace i in
      let dur = Video.duration_s (Catalog.video catalog video) in
      if ts < t1 && ts +. dur > t0 then bump tbl (video, Trace.vho trace i)
    end
  done;
  sparse_of_tbl ~n_videos tbl

let of_soa (catalog : Catalog.t) ~n_vhos ~day0 ~days ~n_windows ~window_s
    (trace : Trace.t) ~lo ~hi =
  if lo < 0 || hi < lo || hi > Trace.length trace then
    invalid_arg "Demand.of_soa: range out of bounds";
  if window_s <= 0.0 then invalid_arg "Demand.of_soa: window_s must be positive";
  if trace.Trace.n_vhos > n_vhos then
    invalid_arg "Demand.of_soa: trace VHO ids exceed n_vhos";
  let base = float_of_int day0 *. Trace.seconds_per_day in
  let horizon = float_of_int days *. Trace.seconds_per_day in
  let n_videos = Catalog.n_videos catalog in
  (* One pass: aggregate (video, vho) counts plus per-bin volumes. *)
  let atbl : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let n_bins = int_of_float (ceil (horizon /. window_s)) in
  let bins = Array.make n_bins 0 in
  let total = ref 0 in
  for i = lo to hi - 1 do
    let ts = Trace.time trace i -. base in
    if ts >= 0.0 && ts < horizon then begin
      incr total;
      bump atbl (Trace.video trace i, Trace.vho trace i);
      let b = int_of_float (ts /. window_s) in
      if b >= 0 && b < n_bins then bins.(b) <- bins.(b) + 1
    end
  done;
  let windows = peak_windows ~bins ~window_s ~k:n_windows in
  {
    n_videos;
    n_vhos;
    a = sparse_of_tbl ~n_videos atbl;
    f = Array.map (concurrency catalog trace ~lo ~hi ~base ~horizon ~n_videos) windows;
    windows;
    total_requests = float_of_int !total;
  }

let with_windows catalog d (week : Trace.t) windows =
  let horizon = float_of_int week.Trace.days *. Trace.seconds_per_day in
  let f =
    Array.map
      (concurrency catalog week ~lo:0 ~hi:(Trace.length week) ~base:0.0 ~horizon
         ~n_videos:d.n_videos)
      windows
  in
  { d with windows; f }

(* Total requests for a video across VHOs. *)
let video_requests t video =
  Array.fold_left (fun acc (_, c) -> acc +. c) 0.0 t.a.(video)

(* Videos ranked by total demand, busiest first (Figs. 7 and 8). *)
let rank_by_demand t =
  let order = Array.init t.n_videos (fun v -> v) in
  let tot = Array.init t.n_videos (fun v -> video_requests t v) in
  Array.sort (fun x y -> Float.compare tot.(y) tot.(x)) order;
  order
