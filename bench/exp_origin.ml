(* Fig. 10 + Table II — MIP vs LRU caching with regional origin servers at
   2x and 6x aggregate disk (Sec. VII-B, comparison to Sharma et al.). The
   origin fleet gets four regional origins each holding the full library,
   storage not counted — the paper's deliberate handicap in favour of
   caching. *)

let run (sc : Vod_core.Scenario.t) =
  Common.section "Fig. 10 / Table II — MIP vs LRU caching with origin servers";
  let one_setting mult =
    let link_mbps = Common.calibrate_link_capacity sc ~disk_multiple:mult in
    let cfg = Common.pipeline_config ~disk_multiple:mult ~link_capacity_mbps:link_mbps sc in
    (* The two fleets of one setting play out concurrently. *)
    match
      Common.parallel_runs
        [
          (fun () -> Vod_core.Pipeline.run cfg (Vod_core.Pipeline.Mip Common.mip_config));
          (fun () -> Vod_core.Pipeline.run cfg (Vod_core.Pipeline.Origin_lru 4));
        ]
    with
    | [ mip; lru ] -> (mult, mip, lru)
    | _ -> invalid_arg "exp_origin: parallel_runs arity"
  in
  let settings = List.map one_setting [ 2.0; 6.0 ] in
  let row name f =
    name
    :: List.concat_map
         (fun (_, mip, lru) ->
           [ f (mip : Vod_core.Pipeline.result); f (lru : Vod_core.Pipeline.result) ])
         settings
  in
  Vod_util.Table.print
    ~header:[ ""; "2x MIP"; "2x LRU+origin"; "6x MIP"; "6x LRU+origin" ]
    [
      row "peak link B/W (Gb/s)" (fun r ->
          Common.fmt_gbps (Vod_sim.Metrics.max_link_mbps r.Vod_core.Pipeline.metrics));
      row "max aggregate B/W (Gb/s)" (fun r ->
          Common.fmt_gbps (Vod_sim.Metrics.max_aggregate_mbps r.Vod_core.Pipeline.metrics));
      row "cache hit rate" (fun r ->
          Common.fmt_pct (Vod_sim.Metrics.local_fraction r.Vod_core.Pipeline.metrics));
      row "total transfer (GB x hop)" (fun r ->
          Printf.sprintf "%.0f" r.Vod_core.Pipeline.metrics.Vod_sim.Metrics.total_gb_hops);
    ];
  Common.note
    "paper (Table II): peak link B/W — MIP 4.5 vs LRU 17.8 (2x), 1.9 vs 6.6 (6x); hit rate 68%% vs 62%% (2x), 95%% vs 86%% (6x)."
