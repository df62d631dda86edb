(** A fleet = one content-distribution scheme across all VHOs: pinned
    copies, per-VHO dynamic caches, the replica oracle and the serving
    logic. The serving loop calls {!serve} per request (paper Sec. VII),
    or, when a failover router picks the server, {!serve_local}, then
    {!default_server} and {!fetch}.

    Costs per request: {!serve_local} is a bit test and at most one cache
    probe; {!default_server} under oracle or origin routing walks the
    video's holders once; {!fetch} is the cache admission (see
    {!Cache.insert} for what an eviction costs) plus O(holders) index
    updates per admitted or evicted video. *)

type routing =
  | Oracle_nearest
  | Mip_routes of Vod_placement.Solution.t
  | Region_origin of int array

type t

type outcome = {
  server : int;
  local : bool;
  cache_hit : bool;
  inserted : bool;
  not_cachable : bool;
}

(** Scheme name for reports. *)
val name : t -> string

(** Number of VHOs in the fleet. *)
val n_vhos : t -> int

(** Whether [video] has a pinned (placement-managed) copy at [vho]: one
    bit test. Raises [Invalid_argument] outside the catalog or the
    topology. *)
val pinned_at : t -> video:int -> vho:int -> bool

(** Pin a copy and register it with the oracle (idempotent). *)
val pin : t -> video:int -> vho:int -> unit

(** Pinned disk usage per VHO (GB), summed in ascending video id order;
    O(videos × VHOs). *)
val pinned_gb : t -> float array

(** Current holders of [video] (pinned or cached): the first
    {!n_holders} cells, unsorted, of the replica index's own buffer, which
    the next {!pin} or {!fetch} rewrites. Exposed for the failover router
    in lib/resil, which reads them without a copy. *)
val holders : t -> video:int -> int array

(** Number of current holders of [video]. *)
val n_holders : t -> video:int -> int

(** Serve one request at [now]: {!serve_local}, else {!fetch} from
    {!default_server}. Raises [Invalid_argument] if a video has no
    replica anywhere under oracle routing. *)
val serve : t -> video:int -> vho:int -> now:float -> outcome

(** [Some] when [vho] pins [video] or its cache hits (the hit locks the
    entry until the stream ends); [None] on a miss, with nothing changed. *)
val serve_local : t -> video:int -> vho:int -> now:float -> outcome option

(** The scheme's fault-free server for a miss at [vho]; reads only.
    Raises as {!serve} does. *)
val default_server : t -> video:int -> vho:int -> int

(** Stream a missed request from [server]: lock a cached copy there until
    the stream ends, admit the video into [vho]'s cache and update the
    replica index. *)
val fetch : t -> video:int -> vho:int -> now:float -> server:int -> outcome

(** MIP placement + complementary per-VHO cache (GB each). *)
val mip :
  solution:Vod_placement.Solution.t ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  cache_gb:float array ->
  t

(** One random pinned copy per video, rest of the disk a cache. *)
val random_single :
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  disk_gb:float array ->
  policy:Cache.policy ->
  seed:int ->
  t

(** Top-[k] pinned everywhere (busiest first per [ranked]), one random
    copy for the rest, remaining disk an LRU cache. *)
val topk :
  k:int ->
  ranked:int array ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  disk_gb:float array ->
  seed:int ->
  t

(** [regions] origin servers at spread-out VHOs, each holding the full
    library (storage not counted); per-VHO disks are pure LRU caches. *)
val origin_regions :
  regions:int ->
  graph:Vod_topology.Graph.t ->
  paths:Vod_topology.Paths.t ->
  catalog:Vod_workload.Catalog.t ->
  disk_gb:float array ->
  t
