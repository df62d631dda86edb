(* Feasibility probing (paper Fig. 11 / Table IV): can all demand be served
   within the disk and link budgets? The probe runs the EPF engine's FEAS
   passes — no objective row — and asks for an epsilon-feasible point.
   A negative answer is heuristic (the engine may simply have run out of
   passes), so sweeps should read "min capacity at which the solver finds
   a placement", exactly the operational question the paper asks. *)

let default_probe_params = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 40 }

let feasible ?(params = default_probe_params) (inst : Instance.t) =
  (* Namespace the engine's phase timers under probe/, so a feasibility
     sweep's metrics don't mix with Solve.solve's solve/engine/* keys. *)
  Vod_obs.Obs.phase "probe" @@ fun () ->
  let _, oracles, _ = Blocks.oracles inst in
  Vod_epf.Engine.feasible params ~capacities:(Instance.capacities inst) ~oracles

(* Smallest x in [lo, hi] (within [tol], relative) such that
   [feasible_at x]; [None] if even [hi] fails. Assumes monotonicity
   (more capacity cannot hurt). *)
let binary_search_min ~lo ~hi ~tol ~feasible_at =
  if not (feasible_at hi) then None
  else begin
    let lo = ref lo and hi = ref hi in
    (* If even lo works, report lo. *)
    if feasible_at !lo then Some !lo
    else begin
      while (!hi -. !lo) /. !hi > tol do
        let mid = 0.5 *. (!lo +. !hi) in
        if feasible_at mid then hi := mid else lo := mid
      done;
      Some !hi
    end
  end

(* Minimum aggregate-disk multiple of the library size at which the
   instance becomes feasible, for a given uniform link capacity.
   [disk_of] maps the multiplier to the per-VHO disk vector, so both the
   paper's uniform and heterogeneous VHO splits fit. *)
let min_disk_multiplier ?(params = default_probe_params) ?(lo = 1.0)
    ?(hi = 16.0) ?(tol = 0.05) ~graph ~catalog ~demand ~link_capacity_mbps
    ~disk_of () =
  let feasible_at mult =
    let disk_gb = disk_of mult in
    let inst =
      Instance.create ~graph ~catalog ~demand ~disk_gb
        ~link_capacity_mbps:(Instance.uniform_links graph link_capacity_mbps)
        ()
    in
    feasible ~params inst
  in
  binary_search_min ~lo ~hi ~tol ~feasible_at

(* Minimum uniform link capacity (Mb/s) at which the instance becomes
   feasible, for a fixed disk vector (Table IV / Fig. 13). *)
let min_link_capacity ?(params = default_probe_params) ?(lo = 1.0)
    ?(hi = 100_000.0) ?(tol = 0.05) ~graph ~catalog ~demand ~disk_gb () =
  let feasible_at mbps =
    let inst =
      Instance.create ~graph ~catalog ~demand ~disk_gb
        ~link_capacity_mbps:(Instance.uniform_links graph mbps)
        ()
    in
    feasible ~params inst
  in
  binary_search_min ~lo ~hi ~tol ~feasible_at
