(* Synthetic request-trace generator.

   The paper's evaluation drives a month of requests against a 55-VHO
   backbone, with per-VHO volumes proportional to metro population, a
   Zipf-with-cutoff video popularity, weekly/diurnal intensity and weekly
   series releases. All of these knobs are reproduced here; the generated
   trace is what every figure/table experiment replays. *)

type params = {
  catalog : Catalog.t;
  populations : float array;   (* per-VHO demand weight (Graph.populations) *)
  mean_daily_requests : float; (* across all VHOs, before weekday scaling *)
  taste_spread : float;        (* regional mix differentiation, 0 = uniform *)
  seed : int;
}

let default_params ~catalog ~populations ~mean_daily_requests ~seed =
  { catalog; populations; mean_daily_requests; taste_spread = 0.9; seed }

(* Poisson sample; exact (Knuth) for small lambda, normal approximation for
   large lambda, which is all the generator needs. *)
let poisson rng lambda =
  if lambda <= 0.0 then 0
  else if lambda < 30.0 then begin
    let l = exp (-.lambda) in
    let k = ref 0 and p = ref 1.0 in
    let continue = ref true in
    while !continue do
      incr k;
      p := !p *. Vod_util.Rng.float rng;
      if !p <= l then continue := false
    done;
    !k - 1
  end
  else begin
    (* Box-Muller normal approximation. *)
    let u1 = Float.max 1e-12 (Vod_util.Rng.float rng) in
    let u2 = Vod_util.Rng.float rng in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    let x = lambda +. (sqrt lambda *. z) in
    max 0 (int_of_float (Float.round x))
  end

(* Day-independent sampling context. Building it consumes no randomness
   beyond the per-day stream split. *)
type ctx = {
  p : params;
  n_vhos : int;
  days : int;
  day_rngs : Vod_util.Rng.t array;
  vho_sampler : Vod_util.Sampler.t;
  hour_sampler : Vod_util.Sampler.t;
  day_scale : float;
  taste_key : int array;
  taste_accept_bound : float;
}

let make_ctx (p : params) =
  let n_vhos = Array.length p.populations in
  if n_vhos = 0 then invalid_arg "Tracegen.generate: no VHOs";
  let days = p.catalog.Catalog.trace_days in
  let rng = Vod_util.Rng.create p.seed in
  let day_rngs = Vod_util.Rng.split_n rng days in
  let vho_sampler = Vod_util.Sampler.create p.populations in
  let hour_sampler = Vod_util.Sampler.create Profiles.hour_of_day_weight in
  let day_weight_sum = ref 0.0 in
  for d = 0 to days - 1 do
    day_weight_sum := !day_weight_sum +. Profiles.day_weight d
  done;
  let day_scale = float_of_int days /. !day_weight_sum in
  let videos = p.catalog.Catalog.videos in
  (* Episodes of one series share a regional audience: key their taste
     multiplier by the series, not the episode — this is what makes the
     paper's series-based demand estimation work (Sec. VI-A). *)
  let taste_key =
    Array.map
      (fun v ->
        match v.Video.kind with
        | Video.Episode { series; _ } -> max_int - series
        | Video.Regular | Video.Music_video | Video.Blockbuster -> v.Video.id)
      videos
  in
  {
    p;
    n_vhos;
    days;
    day_rngs;
    vho_sampler;
    hour_sampler;
    day_scale;
    taste_key;
    taste_accept_bound = 1.0 +. p.taste_spread;
  }

(* One day's requests, sampled into plain staging columns (flat float /
   int arrays, never boxed records). Samplers over per-day weights are
   built inside the task (they are day-local state). Sample [k] lands at
   index [count-1-k], preserving the order the original list-prepending
   generator emitted, so the produced traces stay bit-identical. *)
let sample_day_columns ctx day =
  let p = ctx.p in
  let rng = ctx.day_rngs.(day) in
  let videos = p.catalog.Catalog.videos in
  let weights = Array.map (fun v -> Profiles.video_day_weight v ~day) videos in
  let video_sampler = Vod_util.Sampler.create weights in
  let lambda = p.mean_daily_requests *. Profiles.day_weight day *. ctx.day_scale in
  let count = poisson rng lambda in
  let times = Array.make count 0.0 in
  let vhos = Array.make count 0 in
  let vids = Array.make count 0 in
  for k = 0 to count - 1 do
    let video = Vod_util.Sampler.draw video_sampler rng in
    (* Rejection-sample the VHO against the taste multiplier so that
       P(vho | video) is proportional to population * taste. *)
    let rec pick_vho () =
      let vho = Vod_util.Sampler.draw ctx.vho_sampler rng in
      let accept =
        Profiles.taste_multiplier ~spread:p.taste_spread ~vho
          ~video:ctx.taste_key.(video)
        /. ctx.taste_accept_bound
      in
      if Vod_util.Rng.float rng < accept then vho else pick_vho ()
    in
    let vho = pick_vho () in
    let hour = Vod_util.Sampler.draw ctx.hour_sampler rng in
    let sec_in_hour = Vod_util.Rng.float rng *. 3600.0 in
    let time_s =
      (float_of_int day *. Trace.seconds_per_day)
      +. (float_of_int hour *. 3600.0)
      +. sec_in_hour
    in
    let i = count - 1 - k in
    times.(i) <- time_s;
    vhos.(i) <- vho;
    vids.(i) <- video
  done;
  (times, vhos, vids)

(* Days are staged this many at a time: at most a week of plain-array
   staging columns is live. *)
let staging_days = 7

(* Days are mutually independent given their RNG stream, so generation
   fans out across the domain pool one task per day, a staging window of
   days per pool batch. Determinism: the master generator is split into
   per-day streams *in day order before any task runs* (Rng.split_n),
   each day samples only from its own stream into its own slot, and the
   slots append to the builder in day order, whose final time sort
   depends on the rows alone — so the trace is bit-identical at any job
   count. *)
let generate ?(jobs = 0) (p : params) =
  let ctx = make_ctx p in
  let b = Trace.Builder.create ~n_vhos:ctx.n_vhos ~days:ctx.days () in
  Vod_util.Pool.with_pool ~jobs (fun pool ->
      let d = ref 0 in
      while !d < ctx.days do
        let batch = min staging_days (ctx.days - !d) in
        let day0 = !d in
        let cols =
          Vod_util.Pool.map pool
            ~f:(fun day -> sample_day_columns ctx day)
            (Array.init batch (fun k -> day0 + k))
        in
        Array.iter
          (fun (times, vhos, vids) ->
            Trace.Builder.add_columns b ~times ~vhos ~videos:vids
              ~n:(Array.length times))
          cols;
        d := !d + batch
      done);
  let trace = Trace.Builder.finish b in
  Vod_obs.Obs.set_gauge "mem/trace_store_bytes"
    (float_of_int (Trace.resident_bytes trace));
  trace

(* Kept only for bench/perf (see tracegen.mli). *)
let generate_soa = generate
