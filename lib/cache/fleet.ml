(* A fleet = one content-distribution scheme instantiated across all VHOs:
   pinned copies (from the MIP placement or a baseline rule), per-VHO
   dynamic caches, the replica oracle, and the serving logic. The serving
   loop drives [serve] for every request (paper Sec. VII-A/B), or, under
   faults, its three steps in turn with a router choosing the server
   between them: [serve_local], [default_server], [fetch].

   - MIP            : pinned per the rounded placement, requests routed per
                      the MIP's x variables, small complementary LRU cache;
   - Random + LRU/LFU : one random pinned copy per video, rest of the disk
                      is cache, oracle routing to the nearest copy;
   - Top-K + LRU    : top-K videos pinned everywhere, one random copy for
                      the rest, remaining disk is cache;
   - Origin + LRU   : the network is split into regions, each with an
                      origin VHO holding the full library (extra storage,
                      as in the paper's comparison to [20]); VHO disks are
                      pure LRU caches and misses go to the region origin. *)

type routing =
  | Oracle_nearest
  | Mip_routes of Vod_placement.Solution.t
  | Region_origin of int array (* per-VHO origin VHO *)

type t = {
  name : string;
  paths : Vod_topology.Paths.t;
  catalog : Vod_workload.Catalog.t;
  caches : Cache.t array;
  (* Pinned copies as one bitset, bit [video * n_vhos + vho]. *)
  pinned : Bytes.t;
  index : Replica_index.t;
  routing : routing;
}

type outcome = {
  server : int;
  local : bool;         (* served from this VHO's pinned store or cache *)
  cache_hit : bool;     (* local, via the dynamic cache *)
  inserted : bool;      (* fetched remotely and admitted into the cache *)
  not_cachable : bool;  (* fetched remotely, admission failed *)
}

let name t = t.name

let n_vhos t = Array.length t.caches

(* The bit of ([video], [vho]); raises [Invalid_argument] outside the
   catalog or the topology, as an array index would. *)
let pinned_bit t ~video ~vho =
  let n = Array.length t.caches in
  if vho < 0 || vho >= n || video < 0
     || video >= Vod_workload.Catalog.n_videos t.catalog
  then invalid_arg "Fleet.pinned_at: video or VHO out of range";
  (video * n) + vho

let pinned_at t ~video ~vho =
  let i = pinned_bit t ~video ~vho in
  Char.code (Bytes.get t.pinned (i lsr 3)) land (1 lsl (i land 7)) <> 0

let pin t ~video ~vho =
  let i = pinned_bit t ~video ~vho in
  let byte = Char.code (Bytes.get t.pinned (i lsr 3)) and bit = 1 lsl (i land 7) in
  if byte land bit = 0 then begin
    Bytes.set t.pinned (i lsr 3) (Char.chr (byte lor bit));
    Replica_index.add t.index ~video ~vho
  end

(* Pinned disk usage per VHO (GB). Folds over ascending video ids so the
   reported usage is bit-identical regardless of pin history. *)
let pinned_gb t =
  Array.init (n_vhos t) (fun vho ->
      let acc = ref 0.0 in
      for video = 0 to Vod_workload.Catalog.n_videos t.catalog - 1 do
        if pinned_at t ~video ~vho then
          acc :=
            !acc
            +. Vod_workload.Video.size_gb (Vod_workload.Catalog.video t.catalog video)
      done;
      !acc)

let default_server t ~video ~vho =
  match t.routing with
  | Region_origin origins -> (
      (* Prefer a cached copy anywhere if closer than the origin. *)
      let s = Replica_index.nearest t.index t.paths ~video ~vho in
      if s >= 0
         && Vod_topology.Paths.hops t.paths ~src:s ~dst:vho
            < Vod_topology.Paths.hops t.paths ~src:origins.(vho) ~dst:vho
      then s
      else origins.(vho))
  | Mip_routes solution -> Vod_placement.Solution.server solution t.paths ~video ~vho
  | Oracle_nearest ->
      let s = Replica_index.nearest t.index t.paths ~video ~vho in
      if s < 0 then invalid_arg "Fleet.serve: video has no replica anywhere";
      s

let holders t ~video = Replica_index.holders t.index ~video

let n_holders t ~video = Replica_index.count t.index ~video

(* Local serving is never rerouted: the pinned store, else a cache hit,
   which locks the entry until the stream ends. A miss changes nothing. *)
let serve_local t ~video ~vho ~now =
  let v = Vod_workload.Catalog.video t.catalog video in
  if pinned_at t ~video ~vho then
    Some
      { server = vho; local = true; cache_hit = false; inserted = false; not_cachable = false }
  else if Cache.touch t.caches.(vho) video ~busy_until:(now +. Vod_workload.Video.duration_s v)
  then
    Some
      { server = vho; local = true; cache_hit = true; inserted = false; not_cachable = false }
  else None

(* Explicit recursion: a [List.iter] lambda would allocate a closure per
   evicting miss (alloc-in-hot). *)
let rec unindex t ~vho = function
  | [] -> ()
  | video :: rest ->
      Replica_index.remove t.index ~video ~vho;
      unindex t ~vho rest

let fetch t ~video ~vho ~now ~server =
  let v = Vod_workload.Catalog.video t.catalog video in
  let busy_until = now +. Vod_workload.Video.duration_s v in
  (* Streaming from a remote cached copy pins it for the duration. *)
  if server <> vho then ignore (Cache.touch t.caches.(server) video ~busy_until);
  let inserted, evicted =
    Cache.insert t.caches.(vho) video ~size_gb:(Vod_workload.Video.size_gb v) ~now ~busy_until
  in
  unindex t ~vho evicted;
  if inserted then Replica_index.add t.index ~video ~vho;
  { server; local = false; cache_hit = false; inserted; not_cachable = not inserted }

let serve t ~video ~vho ~now =
  match serve_local t ~video ~vho ~now with
  | Some outcome -> outcome
  | None -> fetch t ~video ~vho ~now ~server:(default_server t ~video ~vho)

(* ---------- constructors ---------- *)

let base ~name ~paths ~catalog ~routing ~cache_capacities_gb ~policy =
  let n = Array.length cache_capacities_gb in
  let n_videos = Vod_workload.Catalog.n_videos catalog in
  {
    name;
    paths;
    catalog;
    caches = Array.map (fun c -> Cache.create ~policy ~capacity_gb:c) cache_capacities_gb;
    pinned = Bytes.make (((n_videos * n) + 7) / 8) '\000';
    index = Replica_index.create ~n_videos;
    routing;
  }

(* MIP placement + complementary cache: [cache_gb.(i)] is the dynamic
   cache at VHO i (the paper's ~5% of disk). *)
let mip ~solution ~paths ~catalog ~cache_gb =
  let t =
    base ~name:"mip" ~paths ~catalog ~routing:(Mip_routes solution)
      ~cache_capacities_gb:cache_gb ~policy:Cache.Lru
  in
  Array.iteri
    (fun video vhos -> Array.iter (fun vho -> pin t ~video ~vho) vhos)
    solution.Vod_placement.Solution.stored;
  t

(* One random pinned copy per video; the rest of each VHO's disk is a
   dynamic cache of the given [policy]. *)
let random_single ~paths ~catalog ~disk_gb ~policy ~seed =
  let n = Array.length disk_gb in
  let rng = Vod_util.Rng.create seed in
  let n_videos = Vod_workload.Catalog.n_videos catalog in
  let owner = Array.init n_videos (fun _ -> Vod_util.Rng.int rng n) in
  let pinned_use = Array.make n 0.0 in
  Array.iteri
    (fun video vho ->
      pinned_use.(vho) <-
        pinned_use.(vho)
        +. Vod_workload.Video.size_gb (Vod_workload.Catalog.video catalog video))
    owner;
  let cache_capacities_gb =
    Array.init n (fun i -> Float.max 0.0 (disk_gb.(i) -. pinned_use.(i)))
  in
  let name =
    match policy with
    | Cache.Lru -> "random+lru"
    | Cache.Lfu -> "random+lfu"
    | Cache.Lrfu lambda -> Printf.sprintf "random+lrfu(%.2g)" lambda
  in
  let t =
    base ~name ~paths ~catalog ~routing:Oracle_nearest ~cache_capacities_gb ~policy
  in
  Array.iteri (fun video vho -> pin t ~video ~vho) owner;
  t

(* Top-K replicated everywhere, the rest one random copy, remaining disk
   is an LRU cache (the paper's simplified version of [23]). [ranked] is
   the demand ranking, busiest first. *)
let topk ~k ~ranked ~paths ~catalog ~disk_gb ~seed =
  let n = Array.length disk_gb in
  let rng = Vod_util.Rng.create seed in
  let n_videos = Vod_workload.Catalog.n_videos catalog in
  let top = Array.sub ranked 0 (min k (Array.length ranked)) in
  let is_top = Array.make n_videos false in
  Array.iter (fun video -> is_top.(video) <- true) top;
  let owner =
    Array.init n_videos (fun video ->
        if is_top.(video) then -1 else Vod_util.Rng.int rng n)
  in
  let pinned_use = Array.make n 0.0 in
  let top_gb =
    Array.fold_left
      (fun acc video ->
        acc +. Vod_workload.Video.size_gb (Vod_workload.Catalog.video catalog video))
      0.0 top
  in
  for i = 0 to n - 1 do
    pinned_use.(i) <- top_gb
  done;
  Array.iteri
    (fun video vho ->
      if vho >= 0 then
        pinned_use.(vho) <-
          pinned_use.(vho)
          +. Vod_workload.Video.size_gb (Vod_workload.Catalog.video catalog video))
    owner;
  let cache_capacities_gb =
    Array.init n (fun i -> Float.max 0.0 (disk_gb.(i) -. pinned_use.(i)))
  in
  let t =
    base
      ~name:(Printf.sprintf "top%d+lru" k)
      ~paths ~catalog ~routing:Oracle_nearest ~cache_capacities_gb ~policy:Cache.Lru
  in
  Array.iteri
    (fun video vho ->
      if vho >= 0 then pin t ~video ~vho
      else
        for i = 0 to n - 1 do
          pin t ~video ~vho:i
        done)
    owner;
  t

(* Partition the VHOs into [regions] groups around spread-out seeds and
   give each group an origin server (attached to the seed VHO, holding the
   whole library, storage not counted). Every VHO's disk is a pure LRU
   cache. *)
let origin_regions ~regions ~graph ~paths ~catalog ~disk_gb =
  let n = Vod_topology.Graph.n_nodes graph in
  if regions <= 0 || regions > n then invalid_arg "Fleet.origin_regions: bad region count";
  (* Greedy k-center seeding: start from the largest metro, then
     repeatedly take the VHO farthest from all chosen seeds. *)
  let first = ref 0 in
  Array.iteri
    (fun i p -> if p > graph.Vod_topology.Graph.populations.(!first) then first := i)
    graph.Vod_topology.Graph.populations;
  let seeds = ref [ !first ] in
  while List.length !seeds < regions do
    let best = ref (-1) and best_d = ref (-1) in
    for i = 0 to n - 1 do
      if not (List.mem i !seeds) then begin
        let d =
          List.fold_left
            (fun acc s -> min acc (Vod_topology.Paths.hops paths ~src:s ~dst:i))
            max_int !seeds
        in
        if d > !best_d then begin
          best_d := d;
          best := i
        end
      end
    done;
    seeds := !best :: !seeds
  done;
  let seed_arr = Array.of_list !seeds in
  let origins =
    Array.init n (fun i ->
        let best = ref seed_arr.(0) and best_h = ref max_int in
        Array.iter
          (fun s ->
            let h = Vod_topology.Paths.hops paths ~src:s ~dst:i in
            if h < !best_h then begin
              best_h := h;
              best := s
            end)
          seed_arr;
        !best)
  in
  let t =
    base ~name:"origin+lru" ~paths ~catalog ~routing:(Region_origin origins)
      ~cache_capacities_gb:disk_gb ~policy:Cache.Lru
  in
  (* Origins pin the full library (extra storage, per the paper's setup). *)
  let n_videos = Vod_workload.Catalog.n_videos catalog in
  Array.iter
    (fun s ->
      for video = 0 to n_videos - 1 do
        pin t ~video ~vho:s
      done)
    seed_arr;
  t
