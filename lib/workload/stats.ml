(* Trace analytics backing the paper's Sec. IV motivation figures. The
   peak windows of the demand model (Sec. VI-B) are Demand's. *)

(* [peak_hour_start_s trace] returns the start time (seconds) of the busiest
   1-hour-aligned window of the trace. *)
let peak_hour_start_s (trace : Trace.t) =
  let hours = trace.Trace.days * 24 in
  let counts = Array.make hours 0 in
  for i = 0 to Trace.length trace - 1 do
    let h = int_of_float (Trace.time trace i /. 3600.0) in
    if h >= 0 && h < hours then counts.(h) <- counts.(h) + 1
  done;
  let best = ref 0 in
  Array.iteri (fun h c -> if c > counts.(!best) then best := h) counts;
  float_of_int !best *. 3600.0

(* Working set of a VHO in a window: the distinct videos requested, and the
   disk space they occupy (Fig. 2 reports both, normalized by library
   size). *)
let working_set (trace : Trace.t) (catalog : Catalog.t) ~vho ~t0 ~t1 =
  let seen = Hashtbl.create 256 in
  for i = 0 to Trace.length trace - 1 do
    let t = Trace.time trace i in
    if Trace.vho trace i = vho && t >= t0 && t < t1 then
      Hashtbl.replace seen (Trace.video trace i) ()
  done;
  let distinct = Hashtbl.length seen in
  (* Sorted-key fold: the working-set size must not depend on the hash
     table's insertion history (float addition is not associative). *)
  let size =
    List.fold_left
      (fun acc video -> acc +. Video.size_gb (Catalog.video catalog video))
      0.0
      (Vod_util.Stats_acc.sorted_keys Int.compare seen)
  in
  (distinct, size)

(* Request-count vector of a VHO over a window, as a sparse hashtable
   (video -> count), for the cosine-similarity analysis of Fig. 3. *)
let request_vector (trace : Trace.t) ~vho ~t0 ~t1 =
  let v = Hashtbl.create 256 in
  for i = 0 to Trace.length trace - 1 do
    let t = Trace.time trace i in
    if Trace.vho trace i = vho && t >= t0 && t < t1 then begin
      let video = Trace.video trace i in
      let c = Option.value ~default:0.0 (Hashtbl.find_opt v video) in
      Hashtbl.replace v video (c +. 1.0)
    end
  done;
  v

(* Fig. 3: for a window size [w] seconds, partition time into intervals of
   size [w]; compare the interval containing the global peak instant with
   the previous interval, per VHO. Returns the per-VHO similarity array. *)
let peak_interval_similarity (trace : Trace.t) ~window_s =
  let peak_t = peak_hour_start_s trace +. 1800.0 (* middle of the peak hour *) in
  let idx = int_of_float (peak_t /. window_s) in
  if idx = 0 then Array.make trace.Trace.n_vhos 1.0
  else
    Array.init trace.Trace.n_vhos (fun vho ->
        let t0 = float_of_int idx *. window_s in
        let v_cur = request_vector trace ~vho ~t0 ~t1:(t0 +. window_s) in
        let v_prev = request_vector trace ~vho ~t0:(t0 -. window_s) ~t1:t0 in
        Vod_util.Stats_acc.cosine_similarity v_cur v_prev)

(* Least-squares Zipf exponent fit on the head of a rank/frequency curve:
   regress log(count) on log(rank) over the top [head_frac] of ranks
   (the exponential cutoff bends the tail, so fitting the head recovers
   the underlying exponent). Returns the positive exponent alpha such
   that count(r) ~ r^-alpha. Used to validate that generated traces match
   the configured popularity law. *)
let fit_zipf_exponent ?(head_frac = 0.2) counts =
  let sorted = Array.copy counts in
  Array.sort (fun a b -> Int.compare b a) sorted;
  let n = Array.length sorted in
  let k = max 2 (int_of_float (head_frac *. float_of_int n)) in
  let xs = ref [] and ys = ref [] in
  for r = 0 to min (k - 1) (n - 1) do
    if sorted.(r) > 0 then begin
      xs := log (float_of_int (r + 1)) :: !xs;
      ys := log (float_of_int sorted.(r)) :: !ys
    end
  done;
  let xs = Array.of_list !xs and ys = Array.of_list !ys in
  let m = Array.length xs in
  if m < 2 then invalid_arg "Stats.fit_zipf_exponent: not enough positive counts";
  let mf = float_of_int m in
  let mean a = Array.fold_left ( +. ) 0.0 a /. mf in
  let mx = mean xs and my = mean ys in
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to m - 1 do
    num := !num +. ((xs.(i) -. mx) *. (ys.(i) -. my));
    den := !den +. ((xs.(i) -. mx) *. (xs.(i) -. mx))
  done;
  if !den = 0.0 then invalid_arg "Stats.fit_zipf_exponent: degenerate ranks";
  -.(!num /. !den)

(* Daily request counts for one video (Fig. 4's per-episode series). *)
let daily_counts (trace : Trace.t) ~video =
  let counts = Array.make trace.Trace.days 0 in
  for i = 0 to Trace.length trace - 1 do
    if Trace.video trace i = video then begin
      let d = Trace.day_of_time (Trace.time trace i) in
      if d >= 0 && d < trace.Trace.days then counts.(d) <- counts.(d) + 1
    end
  done;
  counts
