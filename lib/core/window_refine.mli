(** Iterative peak-window refinement (paper Sec. VI-B): solve with the
    initial peak windows, replay the period, and keep adding the worst
    overloaded un-enforced window to |T| until no link exceeds capacity by
    more than 5 % — the paper's "general case" procedure. *)

type round_info = {
  windows : (float * float) array;
  report : Vod_placement.Solve.report;
  worst_overload : float;   (** max realized load/capacity - 1, outside |T| *)
  worst_window : float option;
}

type result = {
  rounds : round_info list;  (** oldest first *)
  final : Vod_placement.Solve.report;
  converged : bool;
}

(** [solve ~params ~max_rounds sc ~day0 ~disk_gb ~link_capacity_mbps]
    refines the week starting at [day0] in at most [max_rounds] EPF
    solves. It starts from the paper's {!Scenario.n_windows} peak windows
    of {!Scenario.window_s} seconds, replays in windows of that length,
    and stops once no link exceeds its capacity by more than 5 % outside
    the enforced windows. *)
val solve :
  params:Vod_epf.Engine.params ->
  max_rounds:int ->
  Scenario.t ->
  day0:int ->
  disk_gb:float array ->
  link_capacity_mbps:float ->
  result
