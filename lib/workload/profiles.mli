(** Temporal demand profiles: weekly (Fri/Sat-heavy) and diurnal
    (prime-time-peaked) intensity, freshness decay for new releases, and a
    stable per-(VHO, video) taste multiplier that differentiates regional
    request mixes (paper Sec. IV-B, VI-B). *)

(** Relative volume for a day-of-week (day 0 = Monday). *)
val day_weight : int -> float

(** Relative volume for an hour-of-day. *)
val hour_weight : int -> float

(** Additive release spike height, in units of the Zipf head weight. *)
val release_spike : float

(** Demand weight of a video on [day]: 0 if unreleased, steady-state weight
    for back-catalog content, steady weight plus a decaying additive spike
    for recent releases (Fig. 4's shape, uniform across titles). *)
val video_day_weight : Video.t -> day:int -> float

(** Deterministic taste multiplier in [1-spread, 1+spread] for a
    (VHO, video) pair; no storage, pure hash. *)
val taste_multiplier : spread:float -> vho:int -> video:int -> float

(** Raw per-day-of-week profile table (exposed for tests). *)
val day_of_week_weight : float array

(** Raw per-hour-of-day profile table (exposed for tests). *)
val hour_of_day_weight : float array
