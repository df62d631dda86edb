(* The repository benchmark. Run from the repository root:

     dune exec bench/perf/perf.exe -- --seed 1            all workloads
     dune exec bench/perf/perf.exe -- --seed 1 --trace 1  plus per-layer
     dune exec bench/perf/perf.exe -- --workload solve-cold --seed 1
     dune exec bench/perf/perf.exe -- --list              BENCHMARK.json

   With --workload, one workload runs in this process: it sets up its
   inputs and runs once, repeats its timed section for --seconds with
   set-ups in between (setup_s is their median), checks every output,
   and prints one JSON line last. --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer metrics of a traced pass
   (and writes the spans to bench/perf/_out/<workload>.spans.json).
   Without --workload, each workload runs as a child process of its own,
   so its peak RSS is its own, and the results go to
   bench/perf/_out/seed-<seed>.json. *)

module Obs = Vod_obs.Obs

let out_dir = Filename.concat "bench" (Filename.concat "perf" "_out")

let out_file name =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ when Sys.file_exists out_dir -> ());
  Filename.concat out_dir name

let rss_mb read = match read () with Some b -> float_of_int b /. 1e6 | None -> 0.0

(* Repeat [f] until [budget_s] has passed, at least once. Each
   repetition starts from a compacted heap, so one repetition's garbage
   does not slow the next. *)
let repeat ~budget_s f =
  let t0 = Work.now () in
  let rec go acc =
    Gc.compact ();
    let acc = f () :: acc in
    if Work.now () -. t0 < budget_s then go acc else List.rev acc
  in
  go []

type start = {
  p : Work.prepared;
  warm : Work.sample;  (** the first, untimed iteration *)
  rss_after_setup_mb : float;
  rss_after_run_mb : float;
  peak_rss_mb : float;
}

(* The first set-up and one untimed iteration run in the fresh process,
   so the peak RSS read after them is the footprint of setting up and
   running once, untouched by later repetitions. *)
let start (w : Work.t) ~seed =
  let p = w.prepare ~seed in
  let rss_after_setup_mb = rss_mb Vod_obs.Memstat.rss_bytes in
  let warm = p.iterate ~traced:false in
  let rss_after_run_mb = rss_mb Vod_obs.Memstat.rss_bytes in
  let peak_rss_mb = rss_mb Vod_obs.Memstat.peak_rss_bytes in
  { p; warm; rss_after_setup_mb; rss_after_run_mb; peak_rss_mb }

(* Seconds of set-up repetitions after each timed iteration. *)
let setup_slice_s = 0.5

(* The untraced measurement loop: for [seconds], the timed section from
   a compacted heap, then set-ups for [setup_slice_s] (at least one).
   The machine's speed drifts over seconds, so set-ups spread over the
   whole loop see the same speeds the timed section does; one block of
   them would see only its own. Returns the iterations and the set-up
   times. *)
let measure (w : Work.t) (st : start) ~seed ~seconds =
  let t0 = Work.now () in
  let rec setups t1 acc =
    let acc = snd (Work.timed (fun () -> ignore (w.prepare ~seed))) :: acc in
    if Work.now () -. t1 < setup_slice_s then setups t1 acc else acc
  in
  let rec go samples times =
    Gc.compact ();
    let samples = st.p.iterate ~traced:false :: samples in
    let times = setups (Work.now ()) times in
    if Work.now () -. t0 < seconds then go samples times else (List.rev samples, times)
  in
  go [] []

(* One traced call under a root span [name], with a fresh Obs registry
   and span recorder. *)
let traced name f =
  let reg = Obs.create () and rec_ = Span.create () in
  let r = Obs.with_run reg (fun () -> Span.with_recorder rec_ (fun () -> Span.record name f)) in
  (r, reg, rec_)

let per_layer_names = List.map (fun (m : Manifest.metric) -> m.name) Manifest.per_layer

(* Per-name median over a list of per-iteration metric lists. *)
let medians lists =
  List.filter_map
    (fun name ->
      match List.filter_map (List.assoc_opt name) lists with
      | [] -> None
      | vs -> Some (name, Work.median vs))
    per_layer_names

(* The failed checks of [s], and every value in which it differs from
   the reference iteration [first]: outputs are deterministic for a
   seed, traced or not. *)
let failures ~(first : Work.sample) (s : Work.sample) =
  s.problems
  @ List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k s.values with
        | Some v' when Float.equal v v' -> None
        | Some v' -> Some (Printf.sprintf "%s changed between iterations: %.17g vs %.17g" k v v')
        | None -> Some (Printf.sprintf "%s missing in an iteration" k))
      first.values

let wall samples = Work.median (List.map (fun (s : Work.sample) -> s.timed_s) samples)

(* Prints every metric with its unit, then the result line; exits 1
   when any iteration failed its checks. *)
let report ~workload ~(first : Work.sample) samples metrics =
  let failed = List.map (failures ~first) samples in
  let problems = List.concat failed in
  List.iter prerr_endline problems;
  let unit_of name =
    Option.value ~default:"" (Manifest.find_unit (Manifest.end_to_end @ Manifest.per_layer) name)
  in
  List.iter
    (fun (name, v) -> Printf.printf "%-14s %-30s %14.6g %s\n" workload name v (unit_of name))
    metrics;
  let fields =
    List.map
      (fun (name, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (Span.num v) (unit_of name))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (problems = []) (List.length samples)
    (List.length (List.filter (( <> ) []) failed))
    (String.concat ", " fields);
  if problems <> [] then exit 1

let end_to_end (w : Work.t) ~seed ~seconds =
  let st = start w ~seed in
  let samples, setup_times = measure w st ~seed ~seconds in
  let value k = Option.value ~default:Float.nan (List.assoc_opt k st.warm.values) in
  report ~workload:w.name ~first:st.warm (st.warm :: samples)
    [
      ("setup_s", Work.median setup_times);
      ("wall_s", wall samples);
      ("peak_rss_mb", st.peak_rss_mb);
      ("transfer_gb_hops", value "transfer_gb_hops");
      ("link_peak_mean_mbps", value "link_peak_mean_mbps");
    ]

(* The traced pass: half the budget untraced (the tracing-overhead
   baseline), then one traced set-up and traced iterations, each under a
   fresh registry, folded into per-layer metrics. *)
let per_layer (w : Work.t) ~seed ~seconds =
  let st = start w ~seed in
  let plain = repeat ~budget_s:(seconds /. 2.0) (fun () -> st.p.iterate ~traced:false) in
  let (_, setup_s), setup_reg, setup_spans =
    traced "setup" (fun () -> Work.timed (fun () -> w.prepare ~seed))
  in
  let spent names = List.fold_left (fun a n -> a +. Span.total_s setup_spans n) 0.0 names in
  let runs =
    repeat ~budget_s:(seconds /. 2.0) (fun () ->
        traced "iteration" (fun () -> st.p.iterate ~traced:true))
  in
  let samples = List.map (fun (s, _, _) -> s) runs in
  let micro, _, micro_spans = traced "micro" st.p.micro in
  let measured =
    List.concat
      [
        st.p.inputs;
        [
          ("workload.catalog_s", spent [ "Catalog.generate" ]);
          ("workload.tracegen_s", spent [ "Tracegen.generate"; "Tracegen.generate_soa" ]);
          ("workload.demand_s", spent [ "Demand.of_soa" ]);
          ("placement.instance_s", spent [ "Instance.create" ]);
          ( "pool.setup_busy_frac",
            Layers.ratio (Layers.pool_busy_s setup_reg) (float_of_int Work.jobs *. setup_s) );
        ];
        medians
          (List.map
             (fun ((s : Work.sample), reg, _) ->
               Layers.of_registry reg ~jobs:Work.jobs ~wall_s:s.timed_s @ s.timings @ s.values)
             runs);
        micro;
        [
          ("mem.rss_after_setup_mb", st.rss_after_setup_mb);
          ("mem.rss_after_run_mb", st.rss_after_run_mb);
          ("obs.overhead_frac", (wall samples /. wall plain) -. 1.0);
        ];
      ]
  in
  let metrics =
    List.map
      (fun name -> (name, Option.value ~default:0.0 (List.assoc_opt name measured)))
      per_layer_names
  in
  Span.write
    (out_file (w.name ^ ".spans.json"))
    ~workload:w.name
    ((setup_spans :: List.map (fun (_, _, r) -> r) runs) @ [ micro_spans ])
    ~per_layer:metrics;
  report ~workload:w.name ~first:st.warm ((st.warm :: plain) @ samples) metrics

(* ---- all workloads, one child process each ---------------------------- *)

let child ~workload ~seed ~seconds ~trace =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%g" seconds; "--trace"; string_of_int trace |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec pump last =
    match In_channel.input_line ic with
    | Some line ->
        print_endline line;
        pump (Some line)
    | None -> last
  in
  let last = pump None in
  match (Unix.close_process_in ic, last) with
  | Unix.WEXITED 0, Some json -> Ok json
  | _ -> Error workload

let suite ~seed ~seconds ~trace =
  let runs =
    List.concat_map
      (fun (w : Work.t) ->
        List.map
          (fun t -> (w.name, t, child ~workload:w.name ~seed ~seconds ~trace:t))
          (if trace = 1 then [ 0; 1 ] else [ 0 ]))
      Work.all
  in
  let path = out_file (Printf.sprintf "seed-%d.json" seed) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\"seed\": %d, \"seconds\": %g, \"runs\": [\n%s\n]}\n" seed seconds
        (String.concat ",\n"
           (List.map
              (fun (name, t, r) ->
                Printf.sprintf "{\"workload\": %S, \"trace\": %d, \"result\": %s}" name t
                  (match r with Ok json -> json | Error _ -> "null"))
              runs)));
  Printf.printf "wrote %s\n" path;
  let failed = List.filter_map (fun (_, _, r) -> Result.fold ~ok:(fun _ -> None) ~error:Option.some r) runs in
  if failed <> [] then begin
    prerr_endline ("failed: " ^ String.concat ", " failed);
    exit 1
  end

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 and list = ref false in
  let seconds = ref (float_of_int Manifest.run_seconds) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the measurement loop");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--list", Arg.Set list, " print the manifest (BENCHMARK.json) and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--list]";
  let usage_error msg =
    prerr_endline ("perf.exe: " ^ msg);
    exit 2
  in
  if List.map (fun (w : Work.t) -> w.name) Work.all <> List.map fst Manifest.workloads then
    usage_error "Work.all and Manifest.workloads name different workloads";
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  Vod_util.Pool.set_default_jobs Work.jobs;
  if !list then print_string (Manifest.to_json ())
  else if !workload = "" then suite ~seed:!seed ~seconds:!seconds ~trace:!trace
  else
    match List.find_opt (fun (w : Work.t) -> w.name = !workload) Work.all with
    | None -> usage_error ("unknown workload " ^ !workload)
    | Some w ->
        if !trace = 1 then per_layer w ~seed:!seed ~seconds:!seconds
        else end_to_end w ~seed:!seed ~seconds:!seconds
