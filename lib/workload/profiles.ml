(* Temporal demand profiles.

   The paper observes (Sec. VI-B) that users request significantly more on
   Fridays and Saturdays and that the within-day mix peaks in the evening;
   the trace generator reproduces both so that peak-window selection
   (Table V) and working-set analysis (Fig. 2) are meaningful. *)

(* Relative request volume per day of week, day 0 = Monday. Fridays and
   Saturdays are the two busiest days, as in the paper. *)
let day_of_week_weight = [| 0.85; 0.80; 0.85; 0.95; 1.45; 1.60; 1.10 |]

(* Relative request volume per hour of day: quiet overnight, rising through
   the afternoon, prime-time peak 20:00-22:00. *)
let hour_of_day_weight =
  [|
    0.25; 0.15; 0.10; 0.08; 0.08; 0.10; 0.18; 0.30;
    0.45; 0.55; 0.60; 0.65; 0.75; 0.80; 0.85; 0.90;
    1.00; 1.15; 1.35; 1.60; 1.90; 1.95; 1.50; 0.70;
  |]

let day_weight day = day_of_week_weight.(day mod 7)

let hour_weight hour = hour_of_day_weight.(hour mod 24)

(* Release spike in units of the Zipf head weight (rank-0 = 1.0). The
   spike is *additive*, not multiplicative: the paper's Fig. 4 shows
   release-day volume is comparable across episodes regardless of their
   steady-state popularity, and a multiplicative boost on a head-ranked
   title would let a single release dominate a whole day. *)
let release_spike = 0.6

(* Weight of a video on a given [day], combining steady-state popularity
   and the release spike. Unreleased videos have weight 0. *)
let video_day_weight (v : Video.t) ~day =
  if v.Video.release_day > 0 && day < v.Video.release_day then 0.0
  else if v.Video.release_day <= 0 then v.Video.base_weight
  else
    let age = float_of_int (day - v.Video.release_day) in
    v.Video.base_weight +. (release_spike *. exp (-.age /. 3.0))

(* Stable per-(VHO, video) taste multiplier in [1-spread, 1+spread]. This
   creates the regional differences in request mix that make placement
   nontrivial (the paper's VHOs see distinct demand patterns). The hash is
   a fixed integer mix so the multiplier is reproducible without storing
   an n_vhos x n_videos matrix. *)
let taste_multiplier ~spread ~vho ~video =
  let h = (vho * 0x9E3779B1) lxor (video * 0x85EBCA77) in
  let h = h lxor (h lsr 13) in
  let h = h * 0xC2B2AE35 land 0x3FFFFFFF in
  let u = float_of_int h /. float_of_int 0x40000000 in
  1.0 -. spread +. (2.0 *. spread *. u)
