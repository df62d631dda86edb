(* Per-video block oracles for the EPF engine.

   Each video's subproblem is an uncapacitated facility location instance
   (paper Sec. V-C): facilities = VHOs (opening = storing the copy, priced
   by the disk-row multiplier), clients = VHOs with demand for the video
   (service priced by transfer cost plus the link-row multipliers along
   the fixed path). The [optimize] oracle runs the greedy UFL heuristic —
   integral block solutions keep the convex-combination iterate inside the
   block polytope — and [lower_bound] runs dual ascent over the *full*
   facility set, so the engine's Lagrangian bound stays valid. *)

module Paths = Vod_topology.Paths

type choice = {
  open_vhos : int array;  (* VHOs storing the video, sorted *)
  serve : int array;      (* serving VHO per client, in the block's client order *)
}

type client = {
  vho : int;
  a : float;          (* aggregate requests a_j^m *)
  f : float array;    (* concurrent streams per peak window f_j^m(t) *)
}

type block = {
  video : int;
  size_gb : float;
  rate_mbps : float;
  clients : client array;
}

(* Assemble the sparse per-video client list by merging the aggregate
   demand with every peak window's concurrency support. *)
let build_blocks (inst : Instance.t) =
  let demand = inst.Instance.demand in
  let n_videos = demand.Vod_workload.Demand.n_videos in
  let nw = Instance.n_windows inst in
  Array.init n_videos (fun video ->
      let tbl : (int, float * float array) Hashtbl.t = Hashtbl.create 8 in
      Array.iter
        (fun (vho, count) -> Hashtbl.replace tbl vho (count, Array.make nw 0.0))
        demand.Vod_workload.Demand.a.(video);
      for w = 0 to nw - 1 do
        Array.iter
          (fun (vho, conc) ->
            match Hashtbl.find_opt tbl vho with
            | Some (a, f) ->
                f.(w) <- conc;
                Hashtbl.replace tbl vho (a, f)
            | None ->
                let f = Array.make nw 0.0 in
                f.(w) <- conc;
                Hashtbl.add tbl vho (0.0, f))
          demand.Vod_workload.Demand.f.(w).(video)
      done;
      let clients =
        Hashtbl.fold (fun vho (a, f) acc -> { vho; a; f } :: acc) tbl []
        |> List.sort (fun c1 c2 -> Int.compare c1.vho c2.vho)
        |> Array.of_list
      in
      let v = Vod_workload.Catalog.video inst.Instance.catalog video in
      {
        video;
        size_gb = Vod_workload.Video.size_gb v;
        rate_mbps = Vod_workload.Video.rate_mbps v;
        clients;
      })

(* The block kernels below run once per oracle call and are plain loops:
   the dev build compiles with -opaque, so a closure, or a call into
   another module that returns a float, boxes a float per element.

   They walk the paths into each client VHO through the route table
   ([Paths.routes]): the sources' paths into one destination lie end to
   end, and a slice's length is the pair's hop count, every pair being
   reachable since instance paths come from [Paths.compute]. *)

(* The hop count of [src] -> [dst] in the route table's offsets. *)
let[@inline] hops off n ~src ~dst =
  let p = (dst * n) + src in
  off.(p + 1) - off.(p)

(* [Instance.cost]'s expression, alpha * hops + beta. *)
let[@inline] cost alpha beta hops = (alpha *. float_of_int hops) +. beta

(* Row of link 0 in each peak window; link l's row is that plus l. *)
let link_rows_base (inst : Instance.t) =
  Array.init (Instance.n_windows inst) (fun w -> Instance.link_row inst ~window:w ~link:0)

(* Build the priced UFL instance for a block. *)
let ufl_of_block (inst : Instance.t) (b : block) ~obj_price ~row_price =
  let n = Instance.n_vhos inst in
  let nw = Instance.n_windows inst in
  let routes = Paths.routes inst.Instance.paths in
  let off = routes.Paths.off and ids = routes.Paths.link_ids in
  let alpha = inst.Instance.alpha_cost and beta = inst.Instance.beta_cost in
  let weight = inst.Instance.placement_weight in
  let origin = inst.Instance.origin in
  let open_cost = Array.create_float n in
  for i = 0 to n - 1 do
    let place_cost =
      if weight = 0.0 then 0.0
      else weight *. b.size_gb *. cost alpha beta (hops off n ~src:origin ~dst:i)
    in
    open_cost.(i) <-
      (row_price.(Instance.disk_row inst i) *. b.size_gb) +. (obj_price *. place_cost)
  done;
  let link_base = link_rows_base inst in
  (* Per client, the windows with a positive load, in window order: the
     row of their link 0 and the load. *)
  let win_base = Array.make nw 0 and win_load = Array.create_float nw in
  let service = Array.make (Array.length b.clients) [||] in
  for jc = 0 to Array.length b.clients - 1 do
    let c = b.clients.(jc) in
    let loaded = ref 0 in
    for w = 0 to nw - 1 do
      let load = b.rate_mbps *. c.f.(w) in
      if load > 0.0 then begin
        win_base.(!loaded) <- link_base.(w);
        win_load.(!loaded) <- load;
        incr loaded
      end
    done;
    let row = Array.create_float n in
    let per_gb = obj_price *. b.size_gb *. c.a in
    let into = c.vho * n in
    for i = 0 to n - 1 do
      let s = off.(into + i) and e = off.(into + i + 1) in
      let transfer = per_gb *. cost alpha beta (e - s) in
      (* The path into the client's own VHO is empty. *)
      let bw = ref 0.0 in
      for w = 0 to !loaded - 1 do
        let base = win_base.(w) and load = win_load.(w) in
        for q = s to e - 1 do
          bw := !bw +. (row_price.(base + ids.(q)) *. load)
        done
      done;
      row.(i) <- transfer +. !bw
    done;
    service.(jc) <- row
  done;
  { Vod_facility.Ufl.open_cost; service }

(* Translate a UFL solution into an engine point: true objective
   contribution and coupling-row usage. The usage entries are written in
   generation order — the open VHOs' disk rows, then each remotely served
   client's path links per loaded window — and [Sparse.of_entries] sums a
   row's duplicates from the last one generated back. The payload keeps
   [sol.assign] itself as the serving VHO per client. *)
let point_of_solution (inst : Instance.t) (b : block)
    (sol : Vod_facility.Ufl.solution) =
  let n = Instance.n_vhos inst in
  let nw = Instance.n_windows inst in
  let routes = Paths.routes inst.Instance.paths in
  let off = routes.Paths.off and ids = routes.Paths.link_ids in
  let alpha = inst.Instance.alpha_cost and beta = inst.Instance.beta_cost in
  let weight = inst.Instance.placement_weight in
  let origin = inst.Instance.origin in
  let open_set = sol.Vod_facility.Ufl.open_set
  and assign = sol.Vod_facility.Ufl.assign in
  let n_clients = Array.length b.clients in
  (* Count the entries first, so the two arrays are allocated once. *)
  let n_open = ref 0 in
  for i = 0 to n - 1 do
    if open_set.(i) then incr n_open
  done;
  let n_entries = ref !n_open in
  for jc = 0 to n_clients - 1 do
    let c = b.clients.(jc) in
    let h = hops off n ~src:assign.(jc) ~dst:c.vho in
    for w = 0 to nw - 1 do
      if b.rate_mbps *. c.f.(w) > 0.0 then n_entries := !n_entries + h
    done
  done;
  let rows = Array.make !n_entries 0 and vals = Array.create_float !n_entries in
  let open_vhos = Array.make !n_open 0 in
  let k = ref 0 and obj = ref 0.0 in
  for i = 0 to n - 1 do
    if open_set.(i) then begin
      open_vhos.(!k) <- i;
      rows.(!k) <- Instance.disk_row inst i;
      vals.(!k) <- b.size_gb;
      incr k;
      if weight > 0.0 then
        obj := !obj +. (weight *. b.size_gb *. cost alpha beta (hops off n ~src:origin ~dst:i))
    end
  done;
  let link_base = link_rows_base inst in
  for jc = 0 to n_clients - 1 do
    let c = b.clients.(jc) in
    let p = (c.vho * n) + assign.(jc) in
    let s = off.(p) and e = off.(p + 1) in
    obj := !obj +. (b.size_gb *. c.a *. cost alpha beta (e - s));
    for w = 0 to nw - 1 do
      let load = b.rate_mbps *. c.f.(w) in
      if load > 0.0 then begin
        let base = link_base.(w) in
        for q = s to e - 1 do
          rows.(!k) <- base + ids.(q);
          vals.(!k) <- load;
          incr k
        done
      end
    done
  done;
  let data = { open_vhos; serve = assign } in
  { Vod_epf.Engine.obj = !obj; usage = Vod_epf.Sparse.of_entries rows vals; data }

(* Warm-start disk prices: the dual values a greedy demand-density disk
   fill implies. For each VHO, sort its demanded videos by request density
   a * dc / size (dc ~ the hop saving of serving locally, approximated by
   the mean path length), fill the disk, and price the disk at the
   marginal density. Starting every block at its optimum under these
   prices puts the whole system near the right equilibrium immediately;
   the EPF passes then only have to polish and enforce the link rows. *)
let warm_disk_prices (inst : Instance.t) =
  let n = Instance.n_vhos inst in
  let demand = inst.Instance.demand in
  (* Mean hop count over distinct pairs — the typical saving of a local
     copy versus fetching from a remote replica, times alpha. *)
  let mean_hops =
    let sum = ref 0 and cnt = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          sum := !sum + Vod_topology.Paths.hops inst.Instance.paths ~src:i ~dst:j;
          incr cnt
        end
      done
    done;
    if !cnt = 0 then 1.0 else float_of_int !sum /. float_of_int !cnt
  in
  let dc = inst.Instance.alpha_cost *. Float.max 1.0 (0.5 *. mean_hops) in
  let per_vho : (float * float) list array = Array.make n [] in
  Array.iteri
    (fun video pairs ->
      let v = Vod_workload.Catalog.video inst.Instance.catalog video in
      let s = Vod_workload.Video.size_gb v in
      Array.iter
        (fun (vho, a) ->
          if a > 0.0 then per_vho.(vho) <- (a *. dc /. s, s) :: per_vho.(vho))
        pairs)
    demand.Vod_workload.Demand.a;
  Array.mapi
    (fun i entries ->
      let sorted = List.sort (fun (d1, _) (d2, _) -> Float.compare d2 d1) entries in
      let cap = ref inst.Instance.disk_gb.(i) in
      let marginal = ref 0.0 in
      List.iter
        (fun (d, s) ->
          if !cap >= s then begin
            cap := !cap -. s;
            marginal := d
          end)
        sorted;
      !marginal)
    per_vho

(* The engine oracle for one block. [optimize] = greedy UFL (fast,
   integral); [optimize_strong] = local search from greedy (rounding and
   polish candidates); [lower_bound] = Erlenkotter dual ascent (valid LP
   bound); [initial] = the block optimum under the warm-start disk
   prices. *)
let oracle_of_block ?(warm_prices : float array option) (inst : Instance.t)
    (b : block) =
  let optimize ~obj_price ~row_price =
    let ufl = ufl_of_block inst b ~obj_price ~row_price in
    let sol = Vod_facility.Ufl.greedy ufl in
    point_of_solution inst b sol
  in
  let optimize_strong ~obj_price ~row_price =
    let ufl = ufl_of_block inst b ~obj_price ~row_price in
    let sol = Vod_facility.Ufl.local_search ufl in
    point_of_solution inst b sol
  in
  let lower_bound ~row_price =
    let ufl = ufl_of_block inst b ~obj_price:1.0 ~row_price in
    let bound, _ = Vod_facility.Ufl.dual_ascent ufl in
    bound
  in
  let initial () =
    match warm_prices with
    | Some row_price ->
        let ufl = ufl_of_block inst b ~obj_price:1.0 ~row_price in
        point_of_solution inst b (Vod_facility.Ufl.greedy ufl)
    | None ->
        (* Cheapest single facility under raw objective costs. *)
        let n = Instance.n_vhos inst in
        let zero = Array.make (Instance.n_rows inst) 0.0 in
        let ufl = ufl_of_block inst b ~obj_price:1.0 ~row_price:zero in
        let single_cost i =
          Array.fold_left
            (fun acc row -> acc +. row.(i))
            ufl.Vod_facility.Ufl.open_cost.(i)
            ufl.Vod_facility.Ufl.service
        in
        let best = ref 0 in
        for i = 1 to n - 1 do
          if single_cost i < single_cost !best then best := i
        done;
        let open_set = Array.make n false in
        open_set.(!best) <- true;
        point_of_solution inst b (Vod_facility.Ufl.solution_of_open ufl open_set)
  in
  { Vod_epf.Engine.optimize; optimize_strong; lower_bound; initial }

let oracles ?(warm_start = true) (inst : Instance.t) =
  let blocks = build_blocks inst in
  (* Warm-start prices live on the full row layout; link rows start 0. *)
  let row_prices = Array.make (Instance.n_rows inst) 0.0 in
  if warm_start then
    Array.iteri
      (fun i p -> row_prices.(Instance.disk_row inst i) <- p)
      (warm_disk_prices inst);
  let warm_prices = if warm_start then Some row_prices else None in
  (blocks, Array.map (oracle_of_block ?warm_prices inst) blocks, row_prices)
