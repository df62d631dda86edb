(* A placement-MIP instance: the paper's Table I inputs.

   Rows of the coupling-constraint system (shared with the EPF engine):
     rows [0, n)                     — disk constraints, capacity D_i (GB);
     rows [n + w*|L| + l]            — link constraint for peak window w and
                                       directed link l, capacity B_l (Mb/s). *)

type t = {
  graph : Vod_topology.Graph.t;
  paths : Vod_topology.Paths.t;
  catalog : Vod_workload.Catalog.t;
  demand : Vod_workload.Demand.t;
  disk_gb : float array;            (* D_i per VHO *)
  link_capacity_mbps : float array; (* B_l per directed link *)
  alpha_cost : float;               (* per-link transfer cost (Eq. 1) *)
  beta_cost : float;                (* fixed local-serving cost (Eq. 1) *)
  placement_weight : float;         (* w in Eq. 11; 0 disables *)
  origin : int;                     (* origin VHO o for placement transfers *)
}

(* Default beta = 1 (one "hop" worth of local-serving cost). By
   Proposition 5.1 the optimal placements are independent of beta as long
   as alpha > 0, but a strictly positive beta anchors the objective at
   the constant term (Eq. 10), which keeps the decomposition's Lagrangian
   bounds — and hence its objective target B — on the right scale from
   the first pass. *)
let create ?(alpha_cost = 1.0) ?(beta_cost = 1.0) ?(placement_weight = 0.0)
    ?origin ~graph ~catalog ~demand ~disk_gb ~link_capacity_mbps () =
  let n = Vod_topology.Graph.n_nodes graph in
  if Array.length disk_gb <> n then invalid_arg "Instance.create: disk_gb arity";
  if Array.length link_capacity_mbps <> Vod_topology.Graph.n_links graph then
    invalid_arg "Instance.create: link capacity arity";
  (* A NaN capacity fails no [<= 0.] test, and an infinite one makes the
     Lagrangian bound's lambda_i * b_i = 0 * inf = NaN. *)
  Array.iter
    (fun d ->
      if not (Float.is_finite d && d > 0.0) then
        invalid_arg "Instance.create: disk must be positive and finite")
    disk_gb;
  Array.iter
    (fun b ->
      if not (Float.is_finite b && b > 0.0) then
        invalid_arg "Instance.create: link capacity must be positive and finite")
    link_capacity_mbps;
  if demand.Vod_workload.Demand.n_vhos <> n then
    invalid_arg "Instance.create: demand/graph VHO count mismatch";
  let check_cost field c =
    if not (Float.is_finite c && c >= 0.0) then
      invalid_arg ("Instance.create: " ^ field ^ " must be finite and nonnegative")
  in
  check_cost "alpha_cost" alpha_cost;
  check_cost "beta_cost" beta_cost;
  check_cost "placement_weight" placement_weight;
  let origin =
    match origin with
    | Some o ->
        if o < 0 || o >= n then invalid_arg "Instance.create: origin out of range";
        o
    | None ->
        (* Default origin: the largest metro. *)
        let best = ref 0 in
        Array.iteri
          (fun i p -> if p > graph.Vod_topology.Graph.populations.(!best) then best := i)
          graph.Vod_topology.Graph.populations;
        !best
  in
  let paths = Vod_topology.Paths.compute graph in
  {
    graph;
    paths;
    catalog;
    demand;
    disk_gb;
    link_capacity_mbps;
    alpha_cost;
    beta_cost;
    placement_weight;
    origin;
  }

let n_vhos t = Vod_topology.Graph.n_nodes t.graph

let n_links t = Vod_topology.Graph.n_links t.graph

let n_windows t = Array.length t.demand.Vod_workload.Demand.windows

(* Transfer cost per GB from i to j (Eq. 1). *)
let cost t ~src ~dst =
  (t.alpha_cost *. float_of_int (Vod_topology.Paths.hops t.paths ~src ~dst))
  +. t.beta_cost

(* Coupling-row layout. *)
let disk_row (_ : t) vho = vho

let link_row t ~window ~link = n_vhos t + (window * n_links t) + link

let n_rows t = n_vhos t + (n_windows t * n_links t)

let capacities t =
  Array.init (n_rows t) (fun r ->
      if r < n_vhos t then t.disk_gb.(r)
      else t.link_capacity_mbps.((r - n_vhos t) mod n_links t))

(* Uniform helpers for experiment setup. *)
let uniform_disk ~total_gb n = Array.make n (total_gb /. float_of_int n)

let uniform_links graph mbps =
  Array.make (Vod_topology.Graph.n_links graph) mbps
