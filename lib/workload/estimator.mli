(** Demand estimation for the upcoming placement period (paper Sec. VI-A).
    Each strategy emits a predicted week of requests; [Demand.of_soa]
    turns it into the MIP inputs. *)

type strategy =
  | History_only       (** last week replayed — the paper's "no estimate" *)
  | Series_blockbuster (** the paper's default: history + series episode
                           inheritance + blockbuster donor *)
  | Perfect            (** oracle: the actual upcoming week *)

(** [predict_at ?history_s strategy catalog trace ~t0_s] returns the
    predicted requests for the placement period [t0_s, t0_s + 7 days)
    as a 7-day trace whose time 0 is [t0_s]: the history window is the
    [history_s] seconds (default one week) before [t0_s], shifted
    forward onto the upcoming period; releases inside one week of
    [t0_s] receive their inherited/donor clones. A row's time is
    [(t +. shift) -. t0_s] (shift 0 for {!Perfect}); rows that land
    outside [\[0, 7 days)] are dropped. At day-aligned [t0_s] with the
    default history, the history is exactly the seven days before
    [t0_s]. *)
val predict_at :
  ?history_s:float ->
  strategy ->
  Catalog.t ->
  Trace.t ->
  t0_s:float ->
  Trace.t

(** Human-readable strategy name for reports. *)
val name : strategy -> string
