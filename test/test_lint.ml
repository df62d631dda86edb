(* vodlint fixture tests: for every rule, one snippet the rule must
   flag and one conforming snippet it must stay quiet on, plus the
   suppression-comment contract and parse-error reporting. Snippets are
   linted in memory via [Engine.lint_string]; the [path] given to the
   engine selects the scoped rules (lib-only, epf/lp-only). *)

let fired ?(path = "lib/fake/mod.ml") src =
  Vod_lint.Engine.lint_string ~path src
  |> List.map (fun d -> d.Vod_lint.Diagnostic.rule)
  |> List.sort_uniq String.compare

let check_fires rule ?path src () =
  Alcotest.(check bool)
    (rule ^ " fires") true
    (List.mem rule (fired ?path src))

let check_quiet rule ?path src () =
  Alcotest.(check (list string)) (rule ^ " quiet") []
    (List.filter (fun r -> r = rule) (fired ?path src))

(* --- poly-compare ------------------------------------------------- *)

let pc_bad = "let f (a : float array) = Array.sort compare a"
let pc_bad_lambda = "let f l = List.sort (fun (_, w1) (_, w2) -> compare w2 w1) l"
let pc_bad_float_eq = "let f x = x = 1.0"
let pc_good = "let f (a : float array) = Array.sort Float.compare a"
let pc_good_guard = "let f x = if x = 1.0 then 0 else 1"

(* --- exception-swallow -------------------------------------------- *)

let es_bad = "let f g = try g () with _ -> 0"
let es_bad_ignore = "let f g = try g () with e -> ignore e"
let es_good = "let f g = try g () with Not_found -> 0"

(* --- hashtbl-find ------------------------------------------------- *)

let hf_bad = "let f t k = Hashtbl.find t k"
let hf_good_try = "let f t k = try Hashtbl.find t k with Not_found -> 0"
let hf_good_match = "let f t k = match Hashtbl.find t k with x -> x | exception Not_found -> 0"
let hf_good_opt = "let f t k = Hashtbl.find_opt t k"

(* --- print-in-lib ------------------------------------------------- *)

let pl_bad = {|let f () = print_endline "x"|}
let pl_good = {|let f () = Logs.info (fun m -> m "x")|}

(* --- no-failwith -------------------------------------------------- *)

let nf_bad = {|let f () = failwith "boom"|}
let nf_bad_assert = "let f = function Some x -> x | None -> assert false"
let nf_good = {|let f () = invalid_arg "bad input"|}

(* --- quadratic-loop ----------------------------------------------- *)

let ql_bad_for = "let f l = for i = 0 to 9 do ignore (List.nth l i) done"
let ql_bad_rec = "let rec f acc = function [] -> acc | x :: tl -> f (acc @ [ x ]) tl"
let ql_good = "let f l = List.nth l 3"
let ql_good_rev = "let rec f acc = function [] -> acc | x :: tl -> f (x :: acc) tl"

(* --- unguarded-div ------------------------------------------------ *)

let ud_bad = "let f a b = a /. b"
let ud_good_guard = "let f a b = if b > 0.0 then a /. b else 0.0"
let ud_good_eps = "let f a ~eps = a /. eps"
let ud_good_match_guard = "let f a = function Some b when b > 0.0 -> a /. b | _ -> 0.0"

(* --- domain-spawn ------------------------------------------------- *)

let ds_bad = "let f g = Domain.spawn g"
let ds_good = "let f pool a = Vod_util.Pool.map pool ~f:succ a"

(* --- suppression -------------------------------------------------- *)

let sup_same_line = "let f t k = Hashtbl.find t k (* vodlint-disable hashtbl-find *)"

let sup_line_above =
  "(* vodlint-disable hashtbl-find -- key inserted two lines up *)\nlet f t k = Hashtbl.find t k"

let sup_all_rules = "let f t k = Hashtbl.find t k (* vodlint-disable *)"
let sup_wrong_rule = "let f t k = Hashtbl.find t k (* vodlint-disable poly-compare *)"

let suppression_cases () =
  Alcotest.(check (list string)) "same-line id suppresses" [] (fired sup_same_line);
  Alcotest.(check (list string)) "line-above id suppresses" [] (fired sup_line_above);
  Alcotest.(check (list string)) "bare marker suppresses all" [] (fired sup_all_rules);
  Alcotest.(check bool) "unrelated id does not suppress" true
    (List.mem "hashtbl-find" (fired sup_wrong_rule))

(* --- engine behavior ---------------------------------------------- *)

let parse_error_reported () =
  Alcotest.(check (list string)) "syntax error becomes a diagnostic" [ "parse-error" ]
    (fired "let = (")

let scoped_rules_respect_path () =
  (* print/failwith are lib-only; unguarded-div is epf/lp-only. *)
  Alcotest.(check (list string)) "print ok outside lib" []
    (fired ~path:"bench/exp.ml" pl_bad);
  Alcotest.(check (list string)) "failwith ok outside lib" []
    (fired ~path:"bin/tool.ml" nf_bad);
  Alcotest.(check (list string)) "division ok outside epf/lp" []
    (fired ~path:"lib/util/maths.ml" ud_bad)

let clean_realistic_snippet () =
  let src =
    {|
let percentile p a =
  if Array.length a = 0 then invalid_arg "empty";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  sorted.(int_of_float (p *. float_of_int (Array.length a - 1)))
|}
  in
  Alcotest.(check (list string)) "clean code is clean" [] (fired ~path:"lib/util/s.ml" src)

let missing_mli_on_disk () =
  (* missing-mli consults the filesystem, so exercise it via lint_file
     on a scratch lib/ directory below the test's working directory. *)
  let dir = "lib/lintfixture" in
  if not (Sys.file_exists "lib") then Sys.mkdir "lib" 0o755;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ml = Filename.concat dir "orphan.ml" in
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ ml; ml ^ "i" ])
    (fun () ->
      write ml "let x = 1\n";
      let rules = List.filter (fun r -> r.Vod_lint.Rules.id = "missing-mli") Vod_lint.Rules.all in
      let fired_ids () =
        Vod_lint.Engine.lint_file ~rules ml |> List.map (fun d -> d.Vod_lint.Diagnostic.rule)
      in
      Alcotest.(check (list string)) "orphan .ml flagged" [ "missing-mli" ] (fired_ids ());
      write (ml ^ "i") "val x : int\n";
      Alcotest.(check (list string)) "paired .ml clean" [] (fired_ids ()))

let json_report_shape () =
  let diags = Vod_lint.Engine.lint_string ~path:"lib/fake/m.ml" hf_bad in
  let json = Vod_lint.Diagnostic.list_to_json diags in
  Alcotest.(check bool) "json mentions rule id" true
    (let sub = {|"rule":"hashtbl-find"|} in
     let n = String.length json and m = String.length sub in
     let rec go i = i + m <= n && (String.sub json i m = sub || go (i + 1)) in
     go 0)

(* JSON reports and the --rules listing share one escaper: every
   character JSON forbids raw in a string comes out escaped. *)
let json_escape_specials () =
  List.iter
    (fun (raw, want) ->
      Alcotest.(check string) (String.escaped raw) want
        (Vod_lint.Diagnostic.json_escape raw))
    [
      ("a\"b", {|a\"b|});
      ("a\\b", {|a\\b|});
      ("a\nb", {|a\nb|});
      ("a\tb", {|a\tb|});
      ("a\rb", {|a\rb|});
      ("a\001b\031", {|a\u0001b\u001f|});
      ("plain 'text' 100% ok", "plain 'text' 100% ok");
    ]

(* --- project mode: effect analysis -------------------------------- *)

(* Findings of one rule in one file under project mode. Fixtures are
   linted as a set so cross-module summaries resolve. *)
let project_fired rule files =
  Vod_lint.Engine.lint_project_strings files
  |> List.filter_map (fun (d : Vod_lint.Diagnostic.t) ->
         if d.rule = rule then Some d.file else None)

let check_project_fires rule ~in_file files () =
  Alcotest.(check bool)
    (rule ^ " fires in " ^ in_file)
    true
    (List.mem in_file (project_fired rule files))

let check_project_quiet rule files () =
  Alcotest.(check (list string)) (rule ^ " quiet") [] (project_fired rule files)

(* par-race: the acceptance fixture — a captured ref mutated inside a
   Pool closure, directly and via helpers. *)

let pr_direct =
  [
    ( "lib/fake/direct.ml",
      "let go pool =\n\
      \  let total = ref 0.0 in\n\
      \  Vod_util.Pool.iteri pool ~n:4 ~f:(fun i -> total := !total +. float_of_int i);\n\
      \  !total" );
  ]

let pr_same_module_helper =
  [
    ( "lib/fake/helper_mod.ml",
      "let bump r = r := !r +. 1.0\n\
       let go pool =\n\
      \  let c = ref 0.0 in\n\
      \  Vod_util.Pool.iteri pool ~n:4 ~f:(fun _i -> bump c);\n\
      \  !c" );
  ]

let pr_cross_module =
  [
    ("lib/fake/helper.ml", "let bump r = r := !r + 1");
    ( "lib/fake/driver.ml",
      "let go pool =\n\
      \  let c = ref 0 in\n\
      \  Vod_util.Pool.iteri pool ~n:4 ~f:(fun _i -> Helper.bump c);\n\
      \  !c" );
  ]

let pr_local_fn_capture =
  (* The mutating helper is a *local* function of the submitting scope:
     resolved by inline expansion, not the summary table. *)
  [
    ( "lib/fake/local.ml",
      "let go pool =\n\
      \  let c = ref 0 in\n\
      \  let bump () = c := !c + 1 in\n\
      \  Vod_util.Pool.iteri pool ~n:4 ~f:(fun _i -> bump ());\n\
      \  !c" );
  ]

let pr_random =
  [
    ( "lib/fake/rand.ml",
      "let go pool a = Vod_util.Pool.map pool ~f:(fun i -> Random.int i) a" );
  ]

let pr_io =
  [
    ( "lib/fake/io.ml",
      "let go pool = Vod_util.Pool.iteri pool ~n:2 ~f:(fun i -> print_int i)" );
  ]

let pr_global =
  [
    ( "lib/fake/glob.ml",
      "let hits = Hashtbl.create 16\n\
       let go pool =\n\
      \  Vod_util.Pool.iteri pool ~n:4 ~f:(fun i -> Hashtbl.replace hits i true)" );
  ]

let pr_pure =
  [ ("lib/fake/pure.ml", "let go pool a = Vod_util.Pool.map pool ~f:(fun x -> x * 2) a") ]

let pr_rng_stream =
  (* Task-indexed Rng streams are the sanctioned pattern: Rng_state is
     tracked but must not trigger par-race. *)
  [
    ( "lib/fake/rng_ok.ml",
      "let go pool rngs a =\n\
      \  Vod_util.Pool.mapi pool ~f:(fun i _x -> Vod_util.Rng.float rngs.(i) 1.0) a" );
  ]

let pr_local_accum_ok =
  (* A ref allocated *inside* the task is private to it: no race. *)
  [
    ( "lib/fake/priv.ml",
      "let go pool a =\n\
      \  Vod_util.Pool.map pool\n\
      \    ~f:(fun xs ->\n\
      \      let s = ref 0.0 in\n\
      \      Array.iter (fun x -> s := !s +. x) xs;\n\
      \      !s)\n\
      \    a" );
  ]

(* A Stdlib-qualified call is the call itself: both tasks print. *)
let pr_stdlib_io =
  [
    ( "lib/fake/stdlib_io.ml",
      "let a xs = Vod_util.Pool.map ~f:(fun x -> print_endline x; x) xs\n\
       let b xs = Vod_util.Pool.map ~f:(fun x -> Stdlib.print_endline x; x) xs" );
  ]

let par_race_stdlib_qualified () =
  let lines =
    Vod_lint.Engine.lint_project_strings pr_stdlib_io
    |> List.filter_map (fun (d : Vod_lint.Diagnostic.t) ->
           if d.rule = "par-race" then Some d.line else None)
  in
  Alcotest.(check (list int)) "par-race on both lines" [ 1; 2 ] (List.sort Int.compare lines)

(* float-order *)

let fo_iter =
  [
    ( "lib/fake/fo1.ml",
      "let total t =\n\
      \  let s = ref 0.0 in\n\
      \  Hashtbl.iter (fun _ x -> s := !s +. x) t;\n\
      \  !s" );
  ]

let fo_fold =
  [ ("lib/fake/fo2.ml", "let total t = Hashtbl.fold (fun _ x acc -> acc +. x) t 0.0") ]

let fo_keys_ok =
  [ ("lib/fake/fo3.ml", "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []") ]

let fo_elementwise_ok =
  [
    ( "lib/fake/fo4.ml",
      "let scale t out = Hashtbl.iter (fun k x -> out.(k) <- x *. 2.0) t" );
  ]

(* wallclock-in-solver *)

let wc_lib = [ ("lib/fake/wc.ml", "let now () = Unix.gettimeofday ()") ]
let wc_bench = [ ("bench/fake_wc.ml", "let now () = Unix.gettimeofday ()") ]

let wc_suppressed =
  [
    ( "lib/fake/wc_ok.ml",
      "let now () =\n\
      \  (* vodlint-disable wallclock-in-solver -- decorates the report only *)\n\
      \  Unix.gettimeofday ()" );
  ]

let wc_obs_layer =
  (* lib/obs is the quarantined clock user: exempt without suppression. *)
  [ ("lib/obs/fake_clock.ml", "let now () = Unix.gettimeofday ()") ]

(* obs-taint *)

let ot_read =
  [
    ( "lib/fake/ot_read.ml",
      "let passes t =\n\
      \  match Vod_obs.Obs.read t \"epf/passes\" with\n\
      \  | Some (Vod_obs.Obs.Counter n) -> n\n\
      \  | _ -> 0" );
  ]

let ot_report_aliased =
  (* Reading through a [module Obs = Vod_obs.Obs] alias must still be
     caught: matching is on the normalized qualified name. *)
  [
    ( "lib/fake/ot_alias.ml",
      "module Obs = Vod_obs.Obs\nlet dump t = print_string (Obs.report t)" );
  ]

let ot_recorders_ok =
  (* The write-only half is sanctioned anywhere in lib/. *)
  [
    ( "lib/fake/ot_rec.ml",
      "let bump () =\n\
      \  Vod_obs.Obs.incr \"cache/lru/hits\";\n\
      \  Vod_obs.Obs.observe \"epf/round/candidate_merit\" 0.5;\n\
      \  Vod_obs.Obs.phase \"work\" (fun () -> ())" );
  ]

let ot_frontend_ok =
  [ ("bin/fake_export.ml", "let dump t = print_string (Vod_obs.Obs.report t)") ]

let ot_obs_layer_ok =
  [ ("lib/obs/fake_self.ml", "let dump t = Obs.report t") ]

(* project-mode output contract: sorted by (file, line, col, rule,
   message), no duplicates *)
let project_output_stable () =
  let files = pr_cross_module @ fo_iter @ wc_lib in
  let diags = Vod_lint.Engine.lint_project_strings files in
  let sorted = List.sort_uniq Vod_lint.Diagnostic.compare diags in
  Alcotest.(check bool) "sorted and de-duplicated" true (diags = sorted);
  Alcotest.(check bool) "found something to sort" true (List.length diags >= 3)

(* baseline *)

let diag ~file ~line ~rule ~message =
  { Vod_lint.Diagnostic.file; line; col = 0; rule; message }

(* A pair consed onto a list in a hot loop: the tuple and the cons around
   it start at the same column, so alloc-in-hot files two findings at
   one position under one rule. Both survive the report's sort and
   de-duplication, whichever comes first. *)
let hot_tuple_cons =
  [
    ( "lib/fake/master.ml",
      "let solve k =\n\
      \  let acc = ref [] in\n\
      \  for i = 0 to k - 1 do\n\
      \    acc := (i, 1.0) :: !acc\n\
      \  done;\n\
      \  !acc" );
  ]

let same_position_findings_kept () =
  let at_cons (d : Vod_lint.Diagnostic.t) = d.line = 4 && d.col = 11 in
  let kinds diags =
    List.filter_map
      (fun (d : Vod_lint.Diagnostic.t) ->
        if at_cons d then Some (List.hd (String.split_on_char ' ' d.message)) else None)
      diags
  in
  Alcotest.(check (list string)) "both findings at 4:11" [ "list"; "tuple" ]
    (kinds (Vod_lint.Engine.lint_project_strings hot_tuple_cons));
  let a = diag ~file:"lib/a.ml" ~line:4 ~rule:"alloc-in-hot" ~message:"list cons" in
  let b = diag ~file:"lib/a.ml" ~line:4 ~rule:"alloc-in-hot" ~message:"tuple" in
  List.iter
    (fun order ->
      Alcotest.(check (list string)) "kept in message order" [ "list cons"; "tuple" ]
        (List.map
           (fun (d : Vod_lint.Diagnostic.t) -> d.message)
           (List.sort_uniq Vod_lint.Diagnostic.compare order)))
    [ [ a; b ]; [ b; a ]; [ b; a; b; a ] ]

let baseline_roundtrip () =
  let d = diag ~file:"lib/a.ml" ~line:3 ~rule:"par-race" ~message:"task races" in
  let b =
    Vod_lint.Baseline.(of_string (to_string (of_diagnostics [ d ])))
  in
  (* A baselined finding is absorbed even after its line number moves. *)
  let applied = Vod_lint.Baseline.apply b [ { d with line = 42 } ] in
  Alcotest.(check int) "absorbed" 1 applied.Vod_lint.Baseline.baselined;
  Alcotest.(check (list string)) "no fresh findings" []
    (List.map (fun (x : Vod_lint.Diagnostic.t) -> x.rule) applied.fresh);
  Alcotest.(check int) "no stale entries" 0 (List.length applied.stale)

let baseline_add_and_expire () =
  let old_d = diag ~file:"lib/a.ml" ~line:3 ~rule:"par-race" ~message:"old" in
  let new_d = diag ~file:"lib/b.ml" ~line:9 ~rule:"float-order" ~message:"new" in
  let b = Vod_lint.Baseline.of_diagnostics [ old_d ] in
  (* old finding fixed, new one appeared *)
  let applied = Vod_lint.Baseline.apply b [ new_d ] in
  Alcotest.(check int) "nothing absorbed" 0 applied.Vod_lint.Baseline.baselined;
  Alcotest.(check (list string)) "new finding is fresh" [ "float-order" ]
    (List.map (fun (x : Vod_lint.Diagnostic.t) -> x.rule) applied.fresh);
  Alcotest.(check (list string)) "fixed finding reported stale"
    [ "lib/a.ml\tpar-race\told" ]
    (List.map Vod_lint.Baseline.entry_to_string applied.stale)

let baseline_ignores_comments () =
  let b =
    Vod_lint.Baseline.of_string
      "# a comment\n\nlib/a.ml\tpar-race\ttask races\n# trailing\n"
  in
  let d = diag ~file:"lib/a.ml" ~line:1 ~rule:"par-race" ~message:"task races" in
  let applied = Vod_lint.Baseline.apply b [ d ] in
  Alcotest.(check int) "entry parsed and matched" 1
    applied.Vod_lint.Baseline.baselined

(* multi-line suppression comments *)

let sup_multiline =
  "(* vodlint-disable hashtbl-find --\n\
  \   the key is inserted by the caller two lines up,\n\
  \   so find cannot raise here *)\n\
   let f t k = Hashtbl.find t k"

let multiline_suppression () =
  Alcotest.(check (list string)) "multi-line comment suppresses" []
    (fired sup_multiline)

(* --- project mode: units dataflow (phase 3a) ---------------------- *)

(* Findings of one rule under project mode with a units.decl in play. *)
let project_fired_u ?(decl = Vod_lint.Units.empty_decl) rule files =
  Vod_lint.Engine.lint_project_strings ~units_decl:decl files
  |> List.filter_map (fun (d : Vod_lint.Diagnostic.t) ->
         if d.rule = rule then Some d.file else None)

let check_units_fires ?decl rule ~in_file files () =
  Alcotest.(check bool)
    (rule ^ " fires in " ^ in_file)
    true
    (List.mem in_file (project_fired_u ?decl rule files))

let check_units_quiet ?decl rule files () =
  Alcotest.(check (list string)) (rule ^ " quiet") []
    (project_fired_u ?decl rule files)

(* Adding GB to seconds: the suffix convention seeds both params. *)
let um_add_bad =
  [ ("lib/fake/um1.ml", "let total ~size_gb ~duration_s = size_gb +. duration_s") ]

(* Comparing across units is as wrong as adding them. *)
let um_cmp_bad =
  [ ("lib/fake/um2.ml", "let over ~cap_gb ~window_s = cap_gb > window_s") ]

(* Division composes dimensions: GB / (GB/s) = s, so a _s name is
   honest... *)
let um_div_ok =
  [ ("lib/fake/um3.ml", "let drain_s ~size_gb ~rate_gbps = size_gb /. rate_gbps") ]

(* ...and a _gb name on the same body contradicts the derived unit. *)
let um_div_bad =
  [ ("lib/fake/um4.ml", "let drain_gb ~size_gb ~rate_gbps = size_gb /. rate_gbps") ]

(* Scale conversion through a named constant keeps the unit:
   day * s/day = s. *)
let um_conv_ok =
  [
    ( "lib/fake/um5.ml",
      "let seconds_per_day = 86400.0\n\
       let horizon_s ~days = days *. seconds_per_day" );
  ]

(* A bare literal poisons multiplication to Unknown — no false
   mismatch on the later compare. *)
let um_scalar_ok =
  [
    ( "lib/fake/um6.ml",
      "let f ~size_gb ~window_s = (size_gb *. 2.0) > window_s" );
  ]

(* The unit flows through a cross-module call: Depot.capacity has no
   name suffix, its return unit comes from the summary fixpoint. *)
let um_cross_module =
  [
    ("lib/fake/depot.ml", "let capacity ~size_gb = size_gb");
    ( "lib/fake/shop.ml",
      "let check ~window_s ~size_gb = Depot.capacity ~size_gb > window_s" );
  ]

let um_suppressed =
  [
    ( "lib/fake/um7.ml",
      "let total ~size_gb ~duration_s =\n\
      \  (* vodlint-disable unit-mismatch -- deliberate mixed sum *)\n\
      \  size_gb +. duration_s" );
  ]

(* Boundary rule: Depot is decl-covered, [window] is unannotated and
   receives a seconds value — report at the definition. Declaring the
   parameter resolves it. *)
let ub_files =
  [
    ("lib/fake/depot.ml", "let put ~rate_mbps ~window = ignore rate_mbps; ignore window");
    ( "lib/fake/user.ml",
      "let go ~rate_mbps ~window_s = Depot.put ~rate_mbps ~window:window_s" );
  ]

let ub_decl_partial = Vod_lint.Units.decl_of_string "Depot.put rate_mbps=mb/s\n"

let ub_decl_full =
  Vod_lint.Units.decl_of_string "Depot.put rate_mbps=mb/s window=s\n"

(* A decl-declared argument unit is checked at the call site even when
   the callee body is out of scan scope. *)
let um_decl_arg_bad =
  [ ("lib/fake/caller.ml", "let go ~window_s = Depot.put ~rate_mbps:window_s ~window:0.0") ]

let decl_parse_roundtrip () =
  let d =
    Vod_lint.Units.decl_of_string
      "# comment\n\
       Video.size_gb -> gb\n\
       Metrics.add_stream rate_mbps=mb/s t0=s # trailing comment\n\
       Trace.day_of_time arg1=s -> day\n"
  in
  Alcotest.(check (list string))
    "decl_values in file order"
    [ "Video.size_gb"; "Metrics.add_stream"; "Trace.day_of_time" ]
    (Vod_lint.Units.decl_values d)

let decl_parse_errors () =
  let raises src =
    match Vod_lint.Units.decl_of_string src with
    | _ -> false
    | exception Vod_lint.Units.Decl_error _ -> true
  in
  Alcotest.(check bool) "unqualified name rejected" true (raises "size_gb -> gb\n");
  Alcotest.(check bool) "stray token rejected" true (raises "Video.size_gb gb\n");
  Alcotest.(check bool) "dangling arrow rejected" true (raises "Video.size_gb ->\n")

(* --- project mode: hot-path allocations (phase 3b) ----------------- *)

(* Capacity.fits is a loop-hot root (called once per request): a
   per-call iterator closure fires even with no syntactic loop. The
   hoisted tail-recursive form — the shape of the real fix — is quiet. *)
let ah_percall_bad =
  [
    ( "lib/fake/capacity.ml",
      "let fits _t ~rate_mbps links = Array.for_all (fun l -> l >= rate_mbps) links" );
  ]

let ah_percall_good =
  [
    ( "lib/fake/capacity.ml",
      "let rec links_fit ~rate_mbps links i =\n\
      \  i >= Array.length links\n\
      \  || (links.(i) >= rate_mbps && links_fit ~rate_mbps links (i + 1))\n\
       let fits _t ~rate_mbps links = links_fit ~rate_mbps links 0" );
  ]

(* Loop.run_soa is a root but not loop-hot: only allocations inside its
   loops fire. A closure born per while/for iteration is the original
   serving-loop defect; the explicit inner for loop is the fix. *)
let ah_loop_bad =
  [
    ( "lib/fake/loop.ml",
      "let run_soa links n =\n\
      \  for _i = 1 to n do\n\
      \    Array.iter (fun l -> ignore l) links\n\
      \  done" );
  ]

let ah_loop_good =
  [
    ( "lib/fake/loop.ml",
      "let run_soa links n =\n\
      \  for _i = 1 to n do\n\
      \    for j = 0 to Array.length links - 1 do\n\
      \      ignore links.(j)\n\
      \    done\n\
      \  done" );
  ]

(* Pool task bodies are hot by construction: a list built per task
   element fires without any root-table entry. *)
let ah_pool_task =
  [
    ( "lib/fake/worker.ml",
      "let go pool a =\n\
      \  Vod_util.Pool.map pool ~f:(fun xs -> List.map (fun x -> x +. 1.0) xs) a" );
  ]

(* Float boxing: a polymorphic compare whose operand is syntactically
   float boxes both sides on every call of a loop-hot root. *)
let ah_float_box =
  [
    ( "lib/fake/router.ml",
      "let route _t a b = if compare (a *. 1.5) b > 0 then a else b" );
  ]

(* Metrics.add_stream with straight-line array arithmetic: hot but
   allocation-free. *)
let ah_clean =
  [
    ( "lib/fake/metrics.ml",
      "let add_stream t ~rate_mbps =\n\
      \  for i = 0 to Array.length t - 1 do\n\
      \    t.(i) <- t.(i) +. rate_mbps\n\
      \  done" );
  ]

(* Regression: Stats.peak_hour returned seconds under an hour-suffixed
   name (real defect, renamed to peak_hour_start_s). *)
let reg_peak_hour_bad =
  [ ("lib/fake/stats.ml", "let peak_hour ~bin_start_s = bin_start_s") ]

let reg_peak_hour_good =
  [ ("lib/fake/stats.ml", "let peak_hour_start_s ~bin_start_s = bin_start_s") ]

(* Regression: Fleet.serve allocated an identity route closure per
   request (real defect, hoisted to a toplevel function). *)
let reg_fleet_route_bad =
  [
    ( "lib/fake/fleet.ml",
      "let serve_routed _t ~route = route ~default:1\n\
       let serve t = serve_routed t ~route:(fun ~default -> Some default)" );
  ]

let reg_fleet_route_good =
  [
    ( "lib/fake/fleet.ml",
      "let serve_routed _t ~route = route ~default:1\n\
       let identity_route ~default = Some default\n\
       let serve t = serve_routed t ~route:identity_route" );
  ]

(* --- to_github / baseline dedupe / CLI-facing bits ----------------- *)

let github_format () =
  let d =
    diag ~file:"lib/a,b.ml" ~line:3 ~rule:"par-race" ~message:"bad%\nnews"
  in
  Alcotest.(check string) "workflow-command escaping"
    "::warning file=lib/a%2Cb.ml,line=3,col=1,title=vodlint par-race::bad%25%0Anews"
    (Vod_lint.Diagnostic.to_github d)

let baseline_stale_dedupe () =
  (* A duplicated baseline entry must surface as ONE stale line, so
     --forbid-stale output is stable and actionable. *)
  let b =
    Vod_lint.Baseline.of_string
      "lib/a.ml\tpar-race\tgone\nlib/a.ml\tpar-race\tgone\n"
  in
  let applied = Vod_lint.Baseline.apply b [] in
  Alcotest.(check (list string)) "stale de-duplicated"
    [ "lib/a.ml\tpar-race\tgone" ]
    (List.map Vod_lint.Baseline.entry_to_string applied.stale)

let suite =
  [
    Alcotest.test_case "poly-compare fires on bare sort" `Quick (check_fires "poly-compare" pc_bad);
    Alcotest.test_case "poly-compare fires in comparator lambda" `Quick
      (check_fires "poly-compare" pc_bad_lambda);
    Alcotest.test_case "poly-compare fires on float-literal =" `Quick
      (check_fires "poly-compare" pc_bad_float_eq);
    Alcotest.test_case "poly-compare quiet on Float.compare" `Quick
      (check_quiet "poly-compare" pc_good);
    Alcotest.test_case "poly-compare quiet on guard-position =" `Quick
      (check_quiet "poly-compare" pc_good_guard);
    Alcotest.test_case "exception-swallow fires on wildcard" `Quick
      (check_fires "exception-swallow" es_bad);
    Alcotest.test_case "exception-swallow fires on ignore e" `Quick
      (check_fires "exception-swallow" es_bad_ignore);
    Alcotest.test_case "exception-swallow quiet on specific exn" `Quick
      (check_quiet "exception-swallow" es_good);
    Alcotest.test_case "hashtbl-find fires raw" `Quick (check_fires "hashtbl-find" hf_bad);
    Alcotest.test_case "hashtbl-find quiet under try" `Quick (check_quiet "hashtbl-find" hf_good_try);
    Alcotest.test_case "hashtbl-find quiet under match-exception" `Quick
      (check_quiet "hashtbl-find" hf_good_match);
    Alcotest.test_case "hashtbl-find quiet on find_opt" `Quick
      (check_quiet "hashtbl-find" hf_good_opt);
    Alcotest.test_case "print-in-lib fires in lib" `Quick (check_fires "print-in-lib" pl_bad);
    Alcotest.test_case "print-in-lib quiet on Logs" `Quick (check_quiet "print-in-lib" pl_good);
    Alcotest.test_case "no-failwith fires on failwith" `Quick (check_fires "no-failwith" nf_bad);
    Alcotest.test_case "no-failwith fires on assert false" `Quick
      (check_fires "no-failwith" nf_bad_assert);
    Alcotest.test_case "no-failwith quiet on invalid_arg" `Quick (check_quiet "no-failwith" nf_good);
    Alcotest.test_case "quadratic-loop fires on List.nth in for" `Quick
      (check_fires "quadratic-loop" ql_bad_for);
    Alcotest.test_case "quadratic-loop fires on @ in rec" `Quick
      (check_fires "quadratic-loop" ql_bad_rec);
    Alcotest.test_case "quadratic-loop quiet outside loops" `Quick
      (check_quiet "quadratic-loop" ql_good);
    Alcotest.test_case "quadratic-loop quiet on cons accumulation" `Quick
      (check_quiet "quadratic-loop" ql_good_rev);
    Alcotest.test_case "unguarded-div fires in epf" `Quick
      (check_fires "unguarded-div" ~path:"lib/epf/f.ml" ud_bad);
    Alcotest.test_case "unguarded-div quiet under if guard" `Quick
      (check_quiet "unguarded-div" ~path:"lib/epf/f.ml" ud_good_guard);
    Alcotest.test_case "unguarded-div quiet on eps param" `Quick
      (check_quiet "unguarded-div" ~path:"lib/lp/f.ml" ud_good_eps);
    Alcotest.test_case "unguarded-div quiet under when guard" `Quick
      (check_quiet "unguarded-div" ~path:"lib/lp/f.ml" ud_good_match_guard);
    Alcotest.test_case "domain-spawn fires outside the pool" `Quick
      (check_fires "domain-spawn" ds_bad);
    Alcotest.test_case "domain-spawn fires in bin too" `Quick
      (check_fires "domain-spawn" ~path:"bin/tool.ml" ds_bad);
    Alcotest.test_case "domain-spawn quiet in the pool module" `Quick
      (check_quiet "domain-spawn" ~path:"lib/util/pool.ml" ds_bad);
    Alcotest.test_case "domain-spawn quiet with ./ prefix" `Quick
      (check_quiet "domain-spawn" ~path:"./lib/util/pool.ml" ds_bad);
    Alcotest.test_case "domain-spawn quiet on pool use" `Quick
      (check_quiet "domain-spawn" ds_good);
    Alcotest.test_case "suppression comments" `Quick suppression_cases;
    Alcotest.test_case "parse error reported" `Quick parse_error_reported;
    Alcotest.test_case "path scoping" `Quick scoped_rules_respect_path;
    Alcotest.test_case "clean snippet" `Quick clean_realistic_snippet;
    Alcotest.test_case "missing mli on disk" `Quick missing_mli_on_disk;
    Alcotest.test_case "json report shape" `Quick json_report_shape;
    Alcotest.test_case "json escape" `Quick json_escape_specials;
    (* project mode: par-race *)
    Alcotest.test_case "par-race fires on direct captured-ref mutation" `Quick
      (check_project_fires "par-race" ~in_file:"lib/fake/direct.ml" pr_direct);
    Alcotest.test_case "par-race fires through same-module helper" `Quick
      (check_project_fires "par-race" ~in_file:"lib/fake/helper_mod.ml"
         pr_same_module_helper);
    Alcotest.test_case "par-race fires through cross-module callee" `Quick
      (check_project_fires "par-race" ~in_file:"lib/fake/driver.ml" pr_cross_module);
    Alcotest.test_case "par-race fires through local helper fn" `Quick
      (check_project_fires "par-race" ~in_file:"lib/fake/local.ml" pr_local_fn_capture);
    Alcotest.test_case "par-race fires on Random in task" `Quick
      (check_project_fires "par-race" ~in_file:"lib/fake/rand.ml" pr_random);
    Alcotest.test_case "par-race fires on I/O in task" `Quick
      (check_project_fires "par-race" ~in_file:"lib/fake/io.ml" pr_io);
    Alcotest.test_case "par-race fires on Stdlib-qualified I/O" `Quick
      par_race_stdlib_qualified;
    Alcotest.test_case "par-race fires on module-level Hashtbl mutation" `Quick
      (check_project_fires "par-race" ~in_file:"lib/fake/glob.ml" pr_global);
    Alcotest.test_case "par-race quiet on pure task" `Quick
      (check_project_quiet "par-race" pr_pure);
    Alcotest.test_case "par-race quiet on task-indexed Rng streams" `Quick
      (check_project_quiet "par-race" pr_rng_stream);
    Alcotest.test_case "par-race quiet on task-private ref" `Quick
      (check_project_quiet "par-race" pr_local_accum_ok);
    (* project mode: float-order *)
    Alcotest.test_case "float-order fires on iter running sum" `Quick
      (check_project_fires "float-order" ~in_file:"lib/fake/fo1.ml" fo_iter);
    Alcotest.test_case "float-order fires on fold accumulator" `Quick
      (check_project_fires "float-order" ~in_file:"lib/fake/fo2.ml" fo_fold);
    Alcotest.test_case "float-order quiet on key collection" `Quick
      (check_project_quiet "float-order" fo_keys_ok);
    Alcotest.test_case "float-order quiet on element-wise writes" `Quick
      (check_project_quiet "float-order" fo_elementwise_ok);
    (* project mode: wallclock-in-solver *)
    Alcotest.test_case "wallclock-in-solver fires in lib" `Quick
      (check_project_fires "wallclock-in-solver" ~in_file:"lib/fake/wc.ml" wc_lib);
    Alcotest.test_case "wallclock-in-solver quiet outside lib" `Quick
      (check_project_quiet "wallclock-in-solver" wc_bench);
    Alcotest.test_case "wallclock-in-solver suppressible inline" `Quick
      (check_project_quiet "wallclock-in-solver" wc_suppressed);
    Alcotest.test_case "wallclock-in-solver exempts lib/obs" `Quick
      (check_project_quiet "wallclock-in-solver" wc_obs_layer);
    (* project mode: obs-taint *)
    Alcotest.test_case "obs-taint fires on Obs.read in lib" `Quick
      (check_project_fires "obs-taint" ~in_file:"lib/fake/ot_read.ml" ot_read);
    Alcotest.test_case "obs-taint fires through module alias" `Quick
      (check_project_fires "obs-taint" ~in_file:"lib/fake/ot_alias.ml"
         ot_report_aliased);
    Alcotest.test_case "obs-taint quiet on recorder calls" `Quick
      (check_project_quiet "obs-taint" ot_recorders_ok);
    Alcotest.test_case "obs-taint quiet outside lib" `Quick
      (check_project_quiet "obs-taint" ot_frontend_ok);
    Alcotest.test_case "obs-taint quiet inside lib/obs" `Quick
      (check_project_quiet "obs-taint" ot_obs_layer_ok);
    (* project mode: output + baseline *)
    Alcotest.test_case "project output sorted and de-duplicated" `Quick
      project_output_stable;
    Alcotest.test_case "baseline round-trips and absorbs moved findings" `Quick
      baseline_roundtrip;
    Alcotest.test_case "baseline add and expire" `Quick baseline_add_and_expire;
    Alcotest.test_case "baseline skips comments and blanks" `Quick
      baseline_ignores_comments;
    Alcotest.test_case "multi-line suppression comment" `Quick multiline_suppression;
    (* project mode: unit-mismatch *)
    Alcotest.test_case "unit-mismatch fires on gb + s" `Quick
      (check_units_fires "unit-mismatch" ~in_file:"lib/fake/um1.ml" um_add_bad);
    Alcotest.test_case "unit-mismatch fires on gb > s compare" `Quick
      (check_units_fires "unit-mismatch" ~in_file:"lib/fake/um2.ml" um_cmp_bad);
    Alcotest.test_case "unit-mismatch quiet on gb/(gb/s) named _s" `Quick
      (check_units_quiet "unit-mismatch" um_div_ok);
    Alcotest.test_case "unit-mismatch fires on gb/(gb/s) named _gb" `Quick
      (check_units_fires "unit-mismatch" ~in_file:"lib/fake/um4.ml" um_div_bad);
    Alcotest.test_case "unit-mismatch quiet on named-constant conversion" `Quick
      (check_units_quiet "unit-mismatch" um_conv_ok);
    Alcotest.test_case "unit-mismatch quiet on scalar-poisoned product" `Quick
      (check_units_quiet "unit-mismatch" um_scalar_ok);
    Alcotest.test_case "unit-mismatch fires through cross-module summary" `Quick
      (check_units_fires "unit-mismatch" ~in_file:"lib/fake/shop.ml" um_cross_module);
    Alcotest.test_case "unit-mismatch suppressible inline" `Quick
      (check_units_quiet "unit-mismatch" um_suppressed);
    Alcotest.test_case "unit-mismatch fires on decl-declared argument" `Quick
      (check_units_fires ~decl:ub_decl_partial "unit-mismatch"
         ~in_file:"lib/fake/caller.ml" um_decl_arg_bad);
    (* project mode: unit-unannotated-boundary *)
    Alcotest.test_case "boundary fires at the unannotated core parameter" `Quick
      (check_units_fires ~decl:ub_decl_partial "unit-unannotated-boundary"
         ~in_file:"lib/fake/depot.ml" ub_files);
    Alcotest.test_case "boundary quiet once the parameter is declared" `Quick
      (check_units_quiet ~decl:ub_decl_full "unit-unannotated-boundary" ub_files);
    Alcotest.test_case "boundary quiet with no declarations at all" `Quick
      (check_units_quiet "unit-unannotated-boundary" ub_files);
    Alcotest.test_case "units.decl parses and lists values" `Quick decl_parse_roundtrip;
    Alcotest.test_case "units.decl rejects malformed lines" `Quick decl_parse_errors;
    (* project mode: alloc-in-hot *)
    Alcotest.test_case "two findings at one position both reported" `Quick
      same_position_findings_kept;
    Alcotest.test_case "alloc-in-hot fires on per-call closure in loop-hot root" `Quick
      (check_units_fires "alloc-in-hot" ~in_file:"lib/fake/capacity.ml" ah_percall_bad);
    Alcotest.test_case "alloc-in-hot quiet on hoisted tail recursion" `Quick
      (check_units_quiet "alloc-in-hot" ah_percall_good);
    Alcotest.test_case "alloc-in-hot fires on per-iteration closure" `Quick
      (check_units_fires "alloc-in-hot" ~in_file:"lib/fake/loop.ml" ah_loop_bad);
    Alcotest.test_case "alloc-in-hot quiet on explicit inner for loop" `Quick
      (check_units_quiet "alloc-in-hot" ah_loop_good);
    Alcotest.test_case "alloc-in-hot fires inside Pool task body" `Quick
      (check_units_fires "alloc-in-hot" ~in_file:"lib/fake/worker.ml" ah_pool_task);
    Alcotest.test_case "alloc-in-hot fires on float polymorphic compare" `Quick
      (check_units_fires "alloc-in-hot" ~in_file:"lib/fake/router.ml" ah_float_box);
    Alcotest.test_case "alloc-in-hot quiet on allocation-free hot root" `Quick
      (check_units_quiet "alloc-in-hot" ah_clean);
    (* regressions for real defects fixed by this analysis *)
    Alcotest.test_case "regression: peak_hour returning seconds fires" `Quick
      (check_units_fires "unit-mismatch" ~in_file:"lib/fake/stats.ml" reg_peak_hour_bad);
    Alcotest.test_case "regression: peak_hour_start_s rename is quiet" `Quick
      (check_units_quiet "unit-mismatch" reg_peak_hour_good);
    Alcotest.test_case "regression: inline identity route closure fires" `Quick
      (check_units_fires "alloc-in-hot" ~in_file:"lib/fake/fleet.ml" reg_fleet_route_bad);
    Alcotest.test_case "regression: hoisted identity route is quiet" `Quick
      (check_units_quiet "alloc-in-hot" reg_fleet_route_good);
    (* CLI-facing output *)
    Alcotest.test_case "github annotation format and escaping" `Quick github_format;
    Alcotest.test_case "stale baseline entries de-duplicated" `Quick
      baseline_stale_dedupe;
  ]
