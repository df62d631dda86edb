(* Capacity-aware failover routing. For each remote request the router
   tries, in order: the fleet's fault-free server choice (so a fault-free
   playout reproduces direct serving exactly, including MIP x-variable
   routing), then every other alive holder by (surviving-path hops, VHO
   id), then the origin server, and finally records an explicit
   rejection. Paths are the base fixed routing until the first link
   event, after which they are lazily recomputed around the dead links
   ([Paths.compute_masked]). *)

let obs = Vod_obs.Obs.incr

type reject_reason = Vho_down | No_replica | Unreachable | No_capacity

let reject_reason_to_string = function
  | Vho_down -> "vho_down"
  | No_replica -> "no_replica"
  | Unreachable -> "unreachable"
  | No_capacity -> "no_capacity"

type served = {
  server : int;
  links : int array;   (* path actually streamed over *)
  hops : int;
  failover : bool;     (* not the fleet's fault-free choice *)
  extra_hops : int;    (* hops beyond the fault-free path; 0 if it was dead *)
  via_origin : bool;
}

type decision = Served of served | Rejected of reject_reason

type t = {
  graph : Vod_topology.Graph.t;
  base_paths : Vod_topology.Paths.t;
  state : State.t;
  capacity : Capacity.t;
  origin : int option;  (* last-resort full-library server *)
  mutable cur_paths : Vod_topology.Paths.t;
  mutable paths_dirty : bool;
}

let create ~graph ~paths ~state ~capacity ?origin () =
  {
    graph;
    base_paths = paths;
    state;
    capacity;
    origin;
    cur_paths = paths;
    paths_dirty = false;
  }

(* Called by the playout whenever a link goes down or comes back: the
   masked shortest paths are recomputed lazily, at the next routed
   request, so bursts of events cost one recompute. *)
let on_link_event t = t.paths_dirty <- true

let current_paths t =
  if t.paths_dirty then begin
    t.paths_dirty <- false;
    let up = State.link_up t.state in
    t.cur_paths <-
      (if Array.for_all Fun.id up then t.base_paths
       else begin
         obs "resil/path_recomputes";
         Vod_topology.Paths.compute_masked t.graph ~link_up:up
       end)
  end;
  t.cur_paths

(* A candidate serves when it is up, reachable from [dst] over surviving
   links, and its path has residual capacity for the stream. *)
let try_candidate t paths ~dst ~rate_mbps ~until_s ~now server =
  if server = dst then
    (* Local serving never happens here (the fleet handles it), but a
       same-node candidate (e.g. origin at the requesting VHO) streams
       over no links and always fits. *)
    Some { server; links = [||]; hops = 0; failover = false; extra_hops = 0; via_origin = false }
  else if not (State.vho_up t.state server) then None
  else if not (Vod_topology.Paths.reachable paths ~src:server ~dst) then None
  else begin
    let links = Vod_topology.Paths.path_links paths ~src:server ~dst in
    if Capacity.fits t.capacity ~links ~rate_mbps then begin
      Capacity.reserve t.capacity ~links ~rate_mbps ~until_s ~now;
      let hops = Vod_topology.Paths.hops paths ~src:server ~dst in
      Some { server; links; hops; failover = false; extra_hops = 0; via_origin = false }
    end
    else None
  end

(* Route one remote request for [dst]: [default] is the fleet's
   fault-free choice, the first [n_holders] cells of [holders] the
   current replica locations. *)
let route t ~holders ~n_holders ~dst ~default ~rate_mbps ~until_s ~now =
  if not (State.vho_up t.state dst) then Rejected Vho_down
  else begin
    let paths = current_paths t in
    let try_c = try_candidate t paths ~dst ~rate_mbps ~until_s ~now in
    let base_hops =
      (* Fault-free path length, for the extra-hops accounting. *)
      Vod_topology.Paths.hops t.base_paths ~src:default ~dst
    in
    let default_alive =
      State.vho_up t.state default
      && Vod_topology.Paths.reachable paths ~src:default ~dst
    in
    let mark_failover (s : served) ~via_origin =
      {
        s with
        failover = true;
        via_origin;
        (* Extra hops are measured against the fault-free path; when the
           default itself is gone there is no baseline to exceed. *)
        extra_hops = (if default_alive then Stdlib.max 0 (s.hops - base_hops) else 0);
      }
    in
    match (if default_alive then try_c default else None) with
    | Some s -> Served s
    | None -> (
        (* Every other alive, reachable holder by (current hops, id). *)
        let alternates =
          List.init n_holders (Array.get holders)
          |> List.filter (fun h ->
                 h <> default && h <> dst
                 && State.vho_up t.state h
                 && Vod_topology.Paths.reachable paths ~src:h ~dst)
          |> List.map (fun h -> (Vod_topology.Paths.hops paths ~src:h ~dst, h))
          |> List.sort (fun (ha, a) (hb, b) ->
                 let c = Int.compare ha hb in
                 if c <> 0 then c else Int.compare a b)
        in
        let rec first_fit = function
          | [] -> None
          | (_, h) :: rest -> (
              match try_c h with
              | Some s -> Some (mark_failover s ~via_origin:false)
              | None -> first_fit rest)
        in
        match first_fit alternates with
        | Some s -> Served s
        | None -> (
            (* Origin fallback: the full-library server of last resort. *)
            let origin_alive =
              match t.origin with
              | Some o ->
                  State.vho_up t.state o
                  && (o = dst || Vod_topology.Paths.reachable paths ~src:o ~dst)
              | None -> false
            in
            let origin_try =
              match t.origin with
              | Some o when origin_alive -> try_c o
              | Some _ | None -> None
            in
            match origin_try with
            | Some s -> Served (mark_failover s ~via_origin:true)
            | None ->
                (* Everything failed; name the dominant cause. An alive,
                   reachable candidate means only capacity stood in the
                   way; no holders and no origin means nothing to serve
                   from; otherwise the survivors were unreachable/down. *)
                let any_alive = default_alive || alternates <> [] || origin_alive in
                if any_alive then Rejected No_capacity
                else if n_holders = 0 && t.origin = None then Rejected No_replica
                else Rejected Unreachable))
  end
