(* Tests for the iterative peak-window refinement (paper Sec. VI-B). *)

module W = Vod_core.Window_refine

let tiny_scenario () =
  let graph =
    Vod_topology.Graph.create ~name:"ring5" ~n:5
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]
      ~populations:[| 3.0; 1.0; 1.0; 1.0; 1.0 |]
  in
  Vod_core.Scenario.make ~days:7 ~requests_per_video_per_day:15.0 ~seed:31 ~graph
    ~n_videos:80 ()

let fast_params = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 20 }

let refinement_runs_and_reports () =
  let sc = tiny_scenario () in
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:2.0 in
  let r =
    W.solve ~params:fast_params ~max_rounds:3 sc ~day0:0 ~disk_gb:disk
      ~link_capacity_mbps:200.0
  in
  Alcotest.(check bool) "at least one round" true (List.length r.W.rounds >= 1);
  Alcotest.(check bool) "at most max rounds" true (List.length r.W.rounds <= 3);
  (* Window sets grow by exactly one per extra round. *)
  let sizes = List.map (fun ri -> Array.length ri.W.windows) r.W.rounds in
  let rec increasing = function
    | a :: (b :: _ as rest) -> b = a + 1 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "windows grow one per round" true (increasing sizes);
  (* Converged means the final realized overload is within tolerance. *)
  let last = List.nth r.W.rounds (List.length r.W.rounds - 1) in
  if r.W.converged then
    Alcotest.(check bool) "overload within tolerance" true (last.W.worst_overload <= 0.05)

let generous_links_converge_immediately () =
  let sc = tiny_scenario () in
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:3.0 in
  let r =
    W.solve ~params:fast_params ~max_rounds:3 sc ~day0:0 ~disk_gb:disk
      ~link_capacity_mbps:50_000.0
  in
  Alcotest.(check bool) "converged" true r.W.converged;
  Alcotest.(check int) "single round" 1 (List.length r.W.rounds)

(* Each round's enforced windows, rounded objective and worst overload
   outside them, at the refinement test's 200 Mb/s links (one round)
   and at 8 Mb/s (three rounds, not converged), reproduce the recording
   made before the refinement replayed a columnar week
   (test/golden/window_refine_rounds.golden). *)
let rounds_match_recording () =
  let sc = tiny_scenario () in
  let disk = Vod_core.Scenario.uniform_disk sc ~multiple:2.0 in
  let b = Buffer.create 1024 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  List.iter
    (fun cap ->
      let r =
        W.solve ~params:fast_params ~max_rounds:3 sc ~day0:0 ~disk_gb:disk
          ~link_capacity_mbps:cap
      in
      line "link_capacity_mbps %g" cap;
      List.iteri
        (fun i (ri : W.round_info) ->
          line "round %d" i;
          Array.iter (fun (t0, t1) -> line "  window %h %h" t0 t1) ri.W.windows;
          line "  objective %h"
            ri.W.report.Vod_placement.Solve.solution.Vod_placement.Solution.objective;
          line "  worst_overload %h" ri.W.worst_overload;
          line "  worst_window %s"
            (match ri.W.worst_window with
            | Some t -> Printf.sprintf "%h" t
            | None -> "none"))
        r.W.rounds;
      line "converged %b" r.W.converged)
    [ 200.0; 8.0 ];
  Golden.check_text "window_refine_rounds" (Buffer.contents b)

let suite =
  [
    Alcotest.test_case "refinement runs" `Slow refinement_runs_and_reports;
    Alcotest.test_case "rounds = recorded" `Quick rounds_match_recording;
    Alcotest.test_case "generous links converge" `Quick generous_links_converge_immediately;
  ]
