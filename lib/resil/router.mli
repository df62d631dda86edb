(** Capacity-aware failover routing over live fault state: fleet's
    fault-free choice first, then alive holders by (surviving-path hops,
    VHO id), then the origin server, then an explicit rejection. *)

type reject_reason =
  | Vho_down      (** the requesting VHO itself is down *)
  | No_replica    (** no holder anywhere and no origin configured *)
  | Unreachable   (** holders exist but none is alive and reachable *)
  | No_capacity   (** alive candidates exist but every path is saturated *)

val reject_reason_to_string : reject_reason -> string

type served = {
  server : int;
  links : int array;  (** links actually streamed over (masked path) *)
  hops : int;
  failover : bool;    (** served by other than the fault-free choice *)
  extra_hops : int;   (** hops beyond the fault-free path; 0 when the
                          default itself was down *)
  via_origin : bool;
}

type decision = Served of served | Rejected of reject_reason

type t

(** [create ~graph ~paths ~state ~capacity ()] routes over the base
    fixed [paths] until the first link event, then over lazily
    recomputed masked paths. [origin] is an optional full-library
    last-resort server. *)
val create :
  graph:Vod_topology.Graph.t ->
  paths:Vod_topology.Paths.t ->
  state:State.t ->
  capacity:Capacity.t ->
  ?origin:int ->
  unit ->
  t

(** Notify the router that link liveness changed (paths recompute lazily
    at the next routed request). *)
val on_link_event : t -> unit

(** Route one remote request to [dst]. [default] is the fleet's
    fault-free server choice; the first [n_holders] cells of [holders]
    are the current replica locations, in any order. On [Served] the
    stream's bandwidth has been reserved until [until_s]. *)
val route :
  t ->
  holders:int array ->
  n_holders:int ->
  dst:int ->
  default:int ->
  rate_mbps:float ->
  until_s:float ->
  now:float ->
  decision
