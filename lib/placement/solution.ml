(* An integral placement: the rounded MIP solution, plus routing and the
   bookkeeping the evaluation experiments need (copy counts, disk usage,
   migration cost between consecutive placements). *)

type t = {
  n_vhos : int;
  n_videos : int;
  stored : int array array;              (* stored.(video) = sorted VHO ids *)
  routes : (int, int) Hashtbl.t array;   (* routes.(video) : vho -> server *)
  objective : float;
  lower_bound : float;
  max_violation : float;
  passes : int;
}

(* Extract the integral placement from a (rounded) engine outcome. If a
   block is somehow still fractional, adopt its heaviest column (the
   first on ties). *)
let of_outcome (inst : Instance.t) (blocks : Blocks.block array)
    (outcome : Blocks.choice Vod_epf.Engine.outcome) =
  let combos = outcome.Vod_epf.Engine.combos in
  let n_videos = Array.length combos in
  if Array.length blocks <> n_videos then
    invalid_arg "Solution.of_outcome: block/outcome count mismatch";
  let n_vhos = Instance.n_vhos inst in
  let stored = Array.make n_videos [||] in
  let routes = Array.init n_videos (fun _ -> Hashtbl.create 4) in
  Array.iteri
    (fun k combo ->
      let choice = Vod_epf.Combo.data combo (Vod_epf.Combo.heaviest combo) in
      if Array.length choice.Blocks.open_vhos = 0 then
        invalid_arg "Solution.of_outcome: video with no copy";
      stored.(k) <- choice.Blocks.open_vhos;
      let clients = blocks.(k).Blocks.clients in
      Array.iteri
        (fun jc server -> Hashtbl.replace routes.(k) clients.(jc).Blocks.vho server)
        choice.Blocks.serve)
    combos;
  {
    n_vhos;
    n_videos;
    stored;
    routes;
    objective = outcome.Vod_epf.Engine.objective;
    lower_bound = outcome.Vod_epf.Engine.lower_bound;
    max_violation = outcome.Vod_epf.Engine.max_violation;
    passes = outcome.Vod_epf.Engine.passes;
  }

let stores t ~video ~vho =
  (* stored.(video) is sorted; linear scan is fine (few copies). *)
  Array.exists (fun i -> i = vho) t.stored.(video)

(* Which VHO serves a request for [video] at [vho]: locally if stored,
   else per the MIP routing, else the nearest replica under the fixed
   paths. *)
let server t (paths : Vod_topology.Paths.t) ~video ~vho =
  if stores t ~video ~vho then vho
  else
    match Hashtbl.find_opt t.routes.(video) vho with
    | Some s when stores t ~video ~vho:s -> s
    | Some _ | None ->
        let best = ref (-1) and best_h = ref max_int in
        Array.iter
          (fun i ->
            let h = Vod_topology.Paths.hops paths ~src:i ~dst:vho in
            if h < !best_h then begin
              best := i;
              best_h := h
            end)
          t.stored.(video);
        if !best < 0 then invalid_arg "Solution.server: video has no copy";
        !best

let copies t video = Array.length t.stored.(video)

(* Disk consumed per VHO by the pinned placement (GB). *)
let disk_used t (catalog : Vod_workload.Catalog.t) =
  let used = Array.make t.n_vhos 0.0 in
  Array.iteri
    (fun video vhos ->
      let s = Vod_workload.Video.size_gb (Vod_workload.Catalog.video catalog video) in
      Array.iter (fun i -> used.(i) <- used.(i) +. s) vhos)
    t.stored;
  used

(* Optimality gap implied by the Lagrangian bound: (obj - lb) / lb. *)
let gap t =
  if t.lower_bound <= 0.0 then infinity
  else (t.objective -. t.lower_bound) /. t.lower_bound

(* Videos that must be copied to new VHOs to move from [old_sol] to
   [new_sol]: (number of video transfers, GB moved). Paper Sec. VII-H's
   placement-update cost. *)
let migration ~old_sol ~new_sol (catalog : Vod_workload.Catalog.t) =
  if old_sol.n_videos <> new_sol.n_videos then
    invalid_arg "Solution.migration: catalog size mismatch";
  let transfers = ref 0 and gb = ref 0.0 in
  for video = 0 to new_sol.n_videos - 1 do
    let old_set = old_sol.stored.(video) in
    Array.iter
      (fun i ->
        if not (Array.exists (fun j -> j = i) old_set) then begin
          incr transfers;
          gb := !gb +. Vod_workload.Video.size_gb (Vod_workload.Catalog.video catalog video)
        end)
      new_sol.stored.(video)
  done;
  (!transfers, !gb)

(* Rebuild an engine starting point for one block from an existing
   placement: open exactly the VHOs storing the video in [incumbent] and
   serve each demand site from [server]'s choice. This is the warm-start
   bridge — re-solves hand these points to [Vod_epf.Engine.solve
   ~initial] so the descent starts at the incumbent placement instead of
   the single-facility points. *)
let engine_point (inst : Instance.t) (b : Blocks.block) ~incumbent =
  let n = Instance.n_vhos inst in
  if incumbent.n_vhos <> n then
    invalid_arg "Solution.engine_point: VHO count mismatch";
  if b.Blocks.video >= incumbent.n_videos then
    invalid_arg "Solution.engine_point: video outside incumbent catalog";
  let open_set = Array.make n false in
  Array.iter (fun i -> open_set.(i) <- true) incumbent.stored.(b.Blocks.video);
  let assign =
    Array.map
      (fun (c : Blocks.client) ->
        server incumbent inst.Instance.paths ~video:b.Blocks.video ~vho:c.Blocks.vho)
      b.Blocks.clients
  in
  (* [point_of_solution] recomputes the true objective itself, so the
     priced UFL cost of this synthetic solution is never read. *)
  Blocks.point_of_solution inst b { Vod_facility.Ufl.open_set; assign; cost = 0.0 }
