(* vodlint — static analysis enforcing the repo's solver-safety
   invariants (see DESIGN.md, "Static analysis", "Effect analysis" and
   "Units & hot-path analysis").

   Usage: vodlint [--format text|json|github] [--disable IDS]
                  [--rules] [--project] [--baseline FILE]
                  [--write-baseline] [--forbid-stale]
                  [--units-decl FILE] [--protocols-decl FILE] [PATH ...]

   With no paths it lints the default scope: lib/ bin/ bench/ examples/.
   [--project] additionally runs the whole-project rules — the
   effect-analysis phase (par-race, float-order, wallclock-in-solver,
   obs-taint), the units/hot-path phase (unit-mismatch,
   unit-unannotated-boundary, alloc-in-hot, seeded from --units-decl)
   and the protocol phase (proto-leak, proto-double-release,
   missing-protect, seeded from --protocols-decl) — and subtracts the
   accepted findings recorded in the baseline file.
   Exit code 0 when clean, 1 on (unbaselined) findings — or stale
   baseline entries under --forbid-stale — and 2 on usage or internal
   analysis errors (bad flags, unreadable roots, malformed
   units.decl/protocols.decl). *)

let default_roots = [ "lib"; "bin"; "bench"; "examples" ]

let usage =
  "vodlint [--format text|json|github] [--disable IDS] [--rules]\n\
  \        [--project] [--baseline FILE] [--write-baseline]\n\
  \        [--forbid-stale] [--units-decl FILE] [--protocols-decl FILE]\n\
  \        [PATH ...]"

(* Usage, configuration and internal errors exit 2. *)
let fail msg =
  prerr_endline ("vodlint: " ^ msg);
  exit 2

let plural n = if n = 1 then "" else "s"

let () =
  let format = ref `Text in
  let disabled = ref [] in
  let rules_listing = ref false in
  let project = ref false in
  let baseline_path = ref ".vodlint-baseline" in
  let write_baseline = ref false in
  let forbid_stale = ref false in
  let units_decl_path = ref "units.decl" in
  let protocols_decl_path = ref "protocols.decl" in
  let roots = ref [] in
  let set_format = function
    | "text" -> format := `Text
    | "json" -> format := `Json
    | "github" -> format := `Github
    | other -> fail ("unknown format '" ^ other ^ "' (expected text, json or github)")
  in
  let add_disabled s =
    disabled := List.filter (fun id -> id <> "") (String.split_on_char ',' s) @ !disabled
  in
  let spec =
    [
      ( "--format",
        Arg.String set_format,
        "FMT report as 'text' (default), 'json' or 'github' (Actions \
         annotations)" );
      ("--disable", Arg.String add_disabled, "IDS comma-separated rule ids to skip");
      ( "--rules",
        Arg.Set rules_listing,
        " list every rule id, phase and rationale (honors --format json), \
         then exit" );
      ("--project", Arg.Set project, " run the whole-project analysis phases too");
      ( "--baseline",
        Arg.Set_string baseline_path,
        "FILE accepted-findings file for --project (default .vodlint-baseline)" );
      ( "--write-baseline",
        Arg.Set write_baseline,
        " rewrite the baseline to the current findings and exit clean" );
      ( "--forbid-stale",
        Arg.Set forbid_stale,
        " exit nonzero if the baseline holds stale (already-fixed) entries" );
      ( "--units-decl",
        Arg.Set_string units_decl_path,
        "FILE units signature file for --project (default units.decl; missing \
         file = no declarations)" );
      ( "--protocols-decl",
        Arg.Set_string protocols_decl_path,
        "FILE acquire/release protocol file for --project (default \
         protocols.decl; missing file = no declarations)" );
    ]
  in
  Arg.parse spec (fun p -> roots := p :: !roots) usage;
  if !rules_listing then begin
    let entries =
      List.map
        (fun (r : Vod_lint.Rules.t) -> (r.id, "file", r.doc))
        Vod_lint.Rules.all
      @ List.map
          (fun (r : Vod_lint.Project_rules.t) -> (r.id, "project", r.doc))
          Vod_lint.Project_rules.all
    in
    (match !format with
    | `Json ->
        let esc = Vod_lint.Diagnostic.json_escape in
        let objs =
          List.map
            (fun (id, phase, doc) ->
              Printf.sprintf
                "  {\"id\": \"%s\", \"phase\": \"%s\", \"rationale\": \"%s\"}"
                (esc id) (esc phase) (esc doc))
            entries
        in
        print_endline
          (Printf.sprintf "[\n%s\n]" (String.concat ",\n" objs))
    | `Text | `Github ->
        List.iter
          (fun (id, phase, doc) ->
            print_endline (Printf.sprintf "%-26s [%s]  %s" id phase doc))
          entries);
    exit 0
  end;
  List.iter
    (fun id ->
      if Vod_lint.Rules.find id = None && Vod_lint.Project_rules.find id = None
      then fail ("unknown rule id '" ^ id ^ "' (see --rules)"))
    !disabled;
  let rules =
    List.filter (fun (r : Vod_lint.Rules.t) -> not (List.mem r.id !disabled)) Vod_lint.Rules.all
  in
  let roots = match List.rev !roots with [] -> default_roots | rs -> rs in
  let load_decl load path =
    try load path
    with Vod_lint.Units.Decl_error msg | Vod_lint.Proto.Decl_error msg -> fail msg
  in
  let units_decl = load_decl Vod_lint.Units.load_decl !units_decl_path in
  let protocols_decl = load_decl Vod_lint.Proto.load_decl !protocols_decl_path in
  (* Findings exit 1; anything that prevents the analysis from giving
     an answer at all — bad roots, a crash in an analysis pass — is an
     internal error and exits 2, so CI can tell "code has findings"
     from "the linter itself is broken". *)
  let scanned, diags =
    try
      let scanned = List.length (Vod_lint.Engine.discover roots) in
      let diags =
        if !project then
          Vod_lint.Engine.lint_project ~rules ~disabled:!disabled ~units_decl
            ~protocols_decl roots
        else Vod_lint.Engine.lint_paths ~rules roots
      in
      (scanned, diags)
    with
    | Invalid_argument msg -> fail msg
    | e -> fail ("internal analysis error: " ^ Printexc.to_string e)
  in
  if !project && !write_baseline then begin
    Vod_lint.Baseline.(save !baseline_path (of_diagnostics diags));
    let n = List.length diags in
    prerr_endline
      (Printf.sprintf "vodlint: wrote %d finding%s to %s" n (plural n) !baseline_path);
    exit 0
  end;
  let diags, baselined, stale =
    if !project then begin
      let applied = Vod_lint.Baseline.(apply (load !baseline_path) diags) in
      List.iter
        (fun e ->
          prerr_endline
            ("vodlint: stale baseline entry (no longer found): "
            ^ Vod_lint.Baseline.entry_to_string e))
        applied.stale;
      (applied.fresh, applied.baselined, List.length applied.stale)
    end
    else (diags, 0, 0)
  in
  let n = List.length diags in
  (match !format with
  | `Text ->
      List.iter (fun d -> print_endline (Vod_lint.Diagnostic.to_text d)) diags
  | `Github ->
      List.iter (fun d -> print_endline (Vod_lint.Diagnostic.to_github d)) diags
  | `Json -> print_endline (Vod_lint.Diagnostic.list_to_json diags));
  if !project then
    prerr_endline
      (Printf.sprintf "vodlint: %d file%s scanned, %d finding%s, %d baselined%s"
         scanned (plural scanned) n (plural n) baselined
         (if stale > 0 then Printf.sprintf ", %d stale" stale else ""))
  else if n > 0 then prerr_endline (Printf.sprintf "vodlint: %d finding%s" n (plural n));
  if diags <> [] then exit 1;
  if !forbid_stale && stale > 0 then begin
    prerr_endline
      (Printf.sprintf
         "vodlint: %d stale baseline entr%s under --forbid-stale; prune the \
          baseline (vodlint --project --write-baseline)"
         stale
         (if stale = 1 then "y" else "ies"));
    exit 1
  end;
  exit 0
