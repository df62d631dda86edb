(* Re-placement building blocks of the online daemon: demand assembly
   for a placement period starting at an arbitrary float time, the
   periodic MIP re-solve (optionally warm-started from the incumbent and
   steered away from dark VHOs), and the migration-budget restriction
   that turns a target placement into an affordable incremental delta.
   The batch pipeline runs its MIP scheme on the daemon, so these are
   its demand assembly and solve too. *)

type problem = {
  graph : Vod_topology.Graph.t;
  catalog : Vod_workload.Catalog.t;
  disk_gb : float array;          (* raw per-VHO disk *)
  link_capacity_mbps : float;     (* uniform per-link budget *)
  cache_frac : float;             (* complementary-LRU share of each disk *)
  n_windows : int;
  window_s : float;
  engine : Vod_epf.Engine.params;
  solver : string;                (* solver name for Solve.solve *)
}

(* Disk left to a VHO the fault state reports dark: effectively nothing,
   but strictly positive because the engine requires positive row
   capacities. *)
let down_disk_gb = 1e-6

(* Demand for the seven-day placement period that starts at time 0 of
   [week] (a predicted week, already rebased to the period's start, or a
   trace whose first week is the period). *)
let demand pb (week : Vod_workload.Trace.t) =
  Vod_workload.Demand.of_soa pb.catalog
    ~n_vhos:(Vod_topology.Graph.n_nodes pb.graph)
    ~day0:0 ~days:7 ~n_windows:pb.n_windows ~window_s:pb.window_s week ~lo:0
    ~hi:(Vod_workload.Trace.length week)

(* One placement re-solve. [incumbent] warm-starts the EPF engine from
   the placement the fleet is already running; [down_vhos] shrinks dark
   VHOs' disks so the solver plans around the outage. *)
let solve ?incumbent ?down_vhos pb demand =
  let pinned_disk =
    Array.map (fun d -> d *. (1.0 -. pb.cache_frac)) pb.disk_gb
  in
  (match down_vhos with
  | Some down ->
      Array.iteri
        (fun i is_down -> if is_down then pinned_disk.(i) <- down_disk_gb)
        down
  | None -> ());
  let inst =
    Vod_placement.Instance.create ~graph:pb.graph ~catalog:pb.catalog ~demand
      ~disk_gb:pinned_disk
      ~link_capacity_mbps:
        (Vod_placement.Instance.uniform_links pb.graph pb.link_capacity_mbps)
      ()
  in
  Vod_placement.Solve.solve ~solver:pb.solver ~params:pb.engine ?incumbent inst

(* An incremental placement delta: how much of the target placement was
   adopted under the migration budget. *)
type delta = {
  solution : Vod_placement.Solution.t;
  applied : int;    (* videos whose copy set changed and were adopted *)
  deferred : int;   (* videos kept on the incumbent placement *)
  moved_gb : float; (* bytes of new copies actually scheduled *)
}

(* GB of new copies needed to move one video from [old_set] to
   [new_set] (the per-video share of [Solution.migration]). *)
let video_moved_gb (catalog : Vod_workload.Catalog.t) ~video ~old_set ~new_set =
  let gb = ref 0.0 in
  Array.iter
    (fun i ->
      if not (Array.exists (fun j -> j = i) old_set) then
        gb :=
          !gb
          +. Vod_workload.Video.size_gb (Vod_workload.Catalog.video catalog video))
    new_set;
  !gb

let same_set (a : int array) (b : int array) =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> x = y) a b

(* Restrict a target placement to what a migration budget affords:
   per-video atomic adoption (a video either moves to its full target
   copy set or stays put — half-migrated replica sets would leave the
   routing inconsistent), greedily in order of predicted demand per
   moved GB (deterministic tiebreak on video id), skipping videos that
   no longer fit and continuing down the list. Videos whose copy set is
   unchanged (or only shrinks/re-routes — freeing copies costs no
   transfer) always adopt the target's routing for free.

   When everything fits — in particular under an infinite budget — the
   target solution itself is returned, so an unbudgeted daemon (the
   batch pipeline's configuration) adopts each solve as is. *)
let restrict ~(catalog : Vod_workload.Catalog.t)
    ~(incumbent : Vod_placement.Solution.t)
    ~(target : Vod_placement.Solution.t) ~(priority : float array) ~budget_gb =
  if incumbent.Vod_placement.Solution.n_videos <> target.Vod_placement.Solution.n_videos
  then invalid_arg "Replan.restrict: catalog size mismatch";
  let n_videos = target.Vod_placement.Solution.n_videos in
  (* Videos that need transfers, with their cost and priority density. *)
  let costly = ref [] in
  let total_gb = ref 0.0 in
  for video = 0 to n_videos - 1 do
    let old_set = incumbent.Vod_placement.Solution.stored.(video) in
    let new_set = target.Vod_placement.Solution.stored.(video) in
    if not (same_set old_set new_set) then begin
      let gb = video_moved_gb catalog ~video ~old_set ~new_set in
      if gb > 0.0 then begin
        costly := (video, gb) :: !costly;
        total_gb := !total_gb +. gb
      end
    end
  done;
  let costly = Array.of_list (List.rev !costly) in
  if !total_gb <= budget_gb then
    (* Everything fits: the delta IS the target placement. *)
    {
      solution = target;
      applied = Array.length costly;
      deferred = 0;
      moved_gb = !total_gb;
    }
  else begin
    (* Highest predicted demand per moved GB first; ties on video id. *)
    Array.sort
      (fun (v1, g1) (v2, g2) ->
        let d1 = priority.(v1) /. g1 and d2 = priority.(v2) /. g2 in
        match Float.compare d2 d1 with 0 -> Int.compare v1 v2 | c -> c)
      costly;
    let adopt = Array.make n_videos false in
    let applied = ref 0 and deferred = ref 0 and moved = ref 0.0 in
    let remaining = ref budget_gb in
    Array.iter
      (fun (video, gb) ->
        if gb <= !remaining then begin
          adopt.(video) <- true;
          remaining := !remaining -. gb;
          moved := !moved +. gb;
          incr applied
        end
        else incr deferred)
      costly;
    let stored =
      Array.init n_videos (fun video ->
          let old_set = incumbent.Vod_placement.Solution.stored.(video) in
          let new_set = target.Vod_placement.Solution.stored.(video) in
          if adopt.(video) then new_set
          else if same_set old_set new_set then new_set
          else begin
            (* Transfer-free changes (pure shrink / re-route) adopt the
               target; anything needing bytes stays on the incumbent. *)
            let gb = video_moved_gb catalog ~video ~old_set ~new_set in
            if gb = 0.0 then new_set else old_set
          end)
    in
    let routes =
      Array.init n_videos (fun video ->
          if stored.(video) == target.Vod_placement.Solution.stored.(video) then
            target.Vod_placement.Solution.routes.(video)
          else incumbent.Vod_placement.Solution.routes.(video))
    in
    {
      solution =
        {
          target with
          Vod_placement.Solution.stored;
          routes;
          (* The statistics fields describe the *target* solve; the
             hybrid's true objective is between incumbent and target
             and is never read downstream (the fleet only uses
             stored/routes). *)
        };
      applied = !applied;
      deferred = !deferred;
      moved_gb = !moved;
    }
  end
