(** Demand estimation for the upcoming placement period (paper Sec. VI-A).
    Each strategy emits a predicted request batch; [Demand.of_requests]
    turns it into the MIP inputs. *)

type strategy =
  | History_only       (** last week replayed — the paper's "no estimate" *)
  | Series_blockbuster (** the paper's default: history + series episode
                           inheritance + blockbuster donor *)
  | Perfect            (** oracle: the actual upcoming week *)

(** [predict_at ?history_s strategy catalog full ~t0_s] returns the
    predicted requests for the placement period [t0_s, t0_s + 7 days),
    with absolute times: the history window is the [history_s] seconds
    (default one week) before [t0_s], shifted forward onto the upcoming
    period; releases inside one week of [t0_s] receive their
    inherited/donor clones. At day-aligned [t0_s] with the default
    history, the history is exactly {!Trace.between_days} of the seven
    days before [t0_s]. *)
val predict_at :
  ?history_s:float ->
  strategy ->
  Catalog.t ->
  Trace.t ->
  t0_s:float ->
  Trace.request array

(** Most-requested movie of a batch, if any (blockbuster donor). *)
val top_movie : Catalog.t -> Trace.request array -> int option

(** Human-readable strategy name for reports. *)
val name : strategy -> string
