(* The benchmark's manifest: its workloads, its metrics with units and
   regression bounds, and how long one run measures. [perf.exe --list]
   prints it as BENCHMARK.json, and the runtest rule in ./dune diffs that
   output against the committed file, so the two cannot drift. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** share of the parent's median by which the metric may worsen
          before a change counts as a regression (end-to-end only) *)
}

let command = [ "bash"; "bench/perf/run.sh" ]
let paths = [ "bench/perf" ]

(* Seconds one run spends in its measurement loop. *)
let run_seconds = 15

let workloads =
  [
    ( "solve-cold",
      "one cold EPF solve of a 55-VHO, 4,000-video week: the solver does the \
       work (Table III regime), serving is negligible" );
    ( "solve-benders",
      "Benders backend on eight 50-video Ebone weeks: the restricted-master LP \
       does the work and the EPF engine is bypassed" );
    ( "replan-daemon",
      "online daemon, 15 warm-started re-solves over 10 days with a VHO outage: \
       many small solves interleaved with serving" );
    ( "serve-faulted",
      "random+LRU serving of a 14-day trace, direct then under faults and link \
       budgets: the serving loop does the work, no solver" );
  ]

let e name unit better bound = { name; unit; better; bound = Some bound }
let l name unit better = { name; unit; better; bound = None }

(* Metrics every workload reports with tracing off. Placement quality is
   measured as served: every workload ends in a playout of the placement
   it produced (or, for serve-faulted, of its LRU fleet). The quality
   values are deterministic per seed and differ between seeds by up to
   6.6% (IQR over median, bench/perf/recorded), so their bound is three
   times that. Timings and peak RSS also drift with the machine's speed,
   so they get the largest bound allowed. *)
let end_to_end =
  [
    e "setup_s" "s" Lower 0.25;
    e "wall_s" "s" Lower 0.25;
    e "peak_rss_mb" "MB" Lower 0.25;
    e "transfer_gb_hops" "GB-hop" Lower 0.2;
    e "link_peak_mean_mbps" "Mb/s" Lower 0.2;
  ]

(* Metrics of single layers, from the traced pass. A layer a workload
   does not exercise reports 0. *)
let per_layer =
  [
    l "workload.catalog_s" "s" Lower;
    l "workload.tracegen_s" "s" Lower;
    l "workload.demand_s" "s" Lower;
    l "workload.requests" "count" Higher;
    l "workload.store_mb" "MB" Lower;
    l "placement.instance_s" "s" Lower;
    l "placement.blocks_s" "s" Lower;
    l "placement.extract_s" "s" Lower;
    l "placement.solve_calls" "count" Lower;
    l "placement.solve_mean_s" "s" Lower;
    l "placement.solve_max_s" "s" Lower;
    l "placement.rounded_cost" "cost" Lower;
    l "placement.certified_gap" "ratio" Lower;
    l "placement.max_violation" "ratio" Lower;
    l "epf.init_s" "s" Lower;
    l "epf.pass_s" "s" Lower;
    l "epf.passes" "count" Lower;
    l "epf.lb_s" "s" Lower;
    l "epf.round_s" "s" Lower;
    l "epf.polish_s" "s" Lower;
    l "epf.final_lb_s" "s" Lower;
    l "epf.pruned_points" "count" Lower;
    l "epf.round.snaps" "count" Lower;
    l "epf.round.fresh_candidates" "count" Lower;
    l "epf.round.snap_ratio" "ratio" Higher;
    l "facility.greedy_us" "us" Lower;
    l "facility.local_search_us" "us" Lower;
    l "facility.dual_ascent_us" "us" Lower;
    l "decomp.passes" "count" Lower;
    l "decomp.init_s" "s" Lower;
    l "decomp.cuts_s" "s" Lower;
    l "decomp.lb_s" "s" Lower;
    l "decomp.round_s" "s" Lower;
    l "decomp.cuts_added" "count" Lower;
    l "decomp.cols_dropped" "count" Lower;
    l "decomp.serious_ratio" "ratio" Higher;
    l "decomp.master_rows" "count" Lower;
    l "lp.rmp_s" "s" Lower;
    l "lp.rmp_share" "ratio" Lower;
    l "cache.hits" "count" Higher;
    l "cache.misses" "count" Lower;
    l "cache.evictions" "count" Lower;
    l "cache.stream_locked" "count" Lower;
    l "cache.hit_ratio" "ratio" Higher;
    l "serve.local_fraction" "ratio" Higher;
    l "serve.link_p99_mbps" "Mb/s" Lower;
    l "serve.direct_play_s" "s" Lower;
    l "serve.faulted_play_s" "s" Lower;
    l "serve.direct_mreq_s" "Mreq/s" Higher;
    l "serve.faulted_mreq_s" "Mreq/s" Higher;
    l "serve.batches" "count" Lower;
    l "serve.batch_p50_ms" "ms" Lower;
    l "serve.batch_p90_ms" "ms" Lower;
    l "serve.rejection_rate" "ratio" Lower;
    l "serve.daemon.replans" "count" Lower;
    l "serve.daemon.fault_replans" "count" Lower;
    l "serve.daemon.fleet_swaps" "count" Lower;
    l "serve.daemon.apply_ratio" "ratio" Higher;
    l "serve.daemon.non_solve_s" "s" Lower;
    l "serve.daemon.moved_gb" "GB" Lower;
    l "resil.overhead_s" "s" Lower;
    l "resil.failovers" "count" Lower;
    l "resil.rejections.no_capacity" "count" Lower;
    l "resil.rejections.vho_down" "count" Lower;
    l "resil.rejections.unreachable" "count" Lower;
    l "resil.path_recomputes" "count" Lower;
    l "resil.link_saturated_s" "s" Lower;
    l "pool.batches" "count" Lower;
    l "pool.tasks" "count" Lower;
    l "pool.busy_frac" "ratio" Higher;
    l "pool.setup_busy_frac" "ratio" Higher;
    l "mem.rss_after_setup_mb" "MB" Lower;
    l "mem.rss_after_run_mb" "MB" Lower;
    l "obs.overhead_frac" "ratio" Lower;
  ]

let find_unit metrics name =
  List.find_map (fun m -> if m.name = name then Some m.unit else None) metrics

(* ---- BENCHMARK.json rendering ------------------------------------------ *)

let str s = Printf.sprintf "%S" s
let list items = "[" ^ String.concat ", " items ^ "]"
let better_s = function Lower -> "lower" | Higher -> "higher"

let metric_json m =
  let fields =
    [ ("name", str m.name); ("unit", str m.unit); ("better", str (better_s m.better)) ]
    @ match m.bound with Some b -> [ ("bound", Printf.sprintf "%g" b) ] | None -> []
  in
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

let block items = "[\n    " ^ String.concat ",\n    " items ^ "\n  ]"

let to_json () =
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"command\": %s,\n" (list (List.map str command));
      Printf.sprintf "  \"paths\": %s,\n" (list (List.map str paths));
      Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds;
      Printf.sprintf "  \"workloads\": %s,\n"
        (block
           (List.map
              (fun (n, why) -> Printf.sprintf "{\"name\": %S, \"why\": %S}" n why)
              workloads));
      Printf.sprintf "  \"end_to_end\": %s,\n" (block (List.map metric_json end_to_end));
      Printf.sprintf "  \"per_layer\": %s\n" (block (List.map metric_json per_layer));
      "}\n";
    ]
