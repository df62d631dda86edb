(* The vodlint driver: discover .ml/.mli files, parse them with
   compiler-libs, run every enabled rule, drop suppressed findings, and
   hand back a sorted diagnostic list. Reporting stays in the caller
   ([bin/vodlint.ml]) so this library never writes to the console. *)

let ml_suffix path = Filename.check_suffix path ".ml"
let mli_suffix path = Filename.check_suffix path ".mli"

(* [lintfixture] holds deliberately-broken parse-only fixtures for the
   lint test suite; sweeping them would drown the report in intended
   findings. *)
let skip_dir name =
  name = "_build" || name = ".git" || name = "lintfixture"
  || (String.length name > 0 && name.[0] = '.')

(* Depth-first walk, children visited in sorted order so reports are
   deterministic across filesystems. *)
let rec walk path acc =
  if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if skip_dir name then acc else walk (Filename.concat path name) acc)
         acc
  else if ml_suffix path || mli_suffix path then path :: acc
  else acc

let discover roots =
  List.fold_left
    (fun acc root ->
      if Sys.file_exists root then walk root acc
      else invalid_arg (Printf.sprintf "Engine.discover: no such path: %s" root))
    [] roots
  |> List.sort String.compare

let ctx_of_path ~on_disk path =
  {
    Rules.path;
    in_lib = Syntax.in_dir "lib/" path;
    in_div_scope = Syntax.in_dir "lib/epf/" path || Syntax.in_dir "lib/lp/" path;
    on_disk;
  }

(* Parse one file with the compiler front end. [Pparse] handles the
   ast-magic / preprocessor plumbing the compiler itself uses. *)
let parse_file path =
  if mli_suffix path then
    Rules.Intf (Pparse.parse_interface ~tool_name:"vodlint" path)
  else Rules.Impl (Pparse.parse_implementation ~tool_name:"vodlint" path)

let parse_string ~path src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  if mli_suffix path then Rules.Intf (Parse.interface lexbuf)
  else Rules.Impl (Parse.implementation lexbuf)

let exn_message e =
  match Location.error_of_exn e with
  | Some (`Ok err) -> Format.asprintf "%a" Location.print_report err
  | Some `Already_displayed | None -> Printexc.to_string e

let parse_error_diag ~path e =
  {
    Diagnostic.file = path;
    line = 1;
    col = 0;
    rule = "parse-error";
    message = String.map (fun c -> if c = '\n' then ' ' else c) (exn_message e);
  }

let run_rules ~rules ~ctx ~src ast =
  let suppressions = Suppress.scan src in
  List.concat_map (fun (r : Rules.t) -> r.check ctx ast) rules
  |> List.filter (fun (d : Diagnostic.t) ->
         not (Suppress.suppressed suppressions ~line:d.line ~rule:d.rule))

let lint_string ?(rules = Rules.all) ~path src =
  match parse_string ~path src with
  | ast -> run_rules ~rules ~ctx:(ctx_of_path ~on_disk:false path) ~src ast |> List.sort Diagnostic.compare
  | exception e -> [ parse_error_diag ~path e ]

let lint_file ?(rules = Rules.all) path =
  match parse_file path with
  | ast ->
      let src = Syntax.read_file path in
      run_rules ~rules ~ctx:(ctx_of_path ~on_disk:true path) ~src ast
  | exception e -> [ parse_error_diag ~path e ]

let lint_paths ?(rules = Rules.all) roots =
  discover roots
  |> List.concat_map (fun path -> lint_file ~rules path)
  |> List.sort_uniq Diagnostic.compare

(* ------------------------------------------------------------------ *)
(* Project mode: phase-1 rules per file plus phase-2 rules over the
   whole tree's effect summaries. *)

(* Phase-2 diagnostics honour the same [vodlint-disable] comments as
   phase-1 ones; suppression is applied here because [Project_rules]
   never sees source text. *)
let filter_suppressed ~sources diags =
  let scans =
    List.map (fun (path, src) -> (path, Suppress.scan src)) sources
  in
  List.filter
    (fun (d : Diagnostic.t) ->
      match List.assoc_opt d.file scans with
      | Some s -> not (Suppress.suppressed s ~line:d.line ~rule:d.rule)
      | None -> true)
    diags

let project_core ~rules ~disabled ~units_decl ~protocols_decl ~on_disk files =
  (* files : (path * src * (ast, exn) result) list *)
  let phase1 =
    List.concat_map
      (fun (path, src, parsed) ->
        match parsed with
        | Error e -> [ parse_error_diag ~path e ]
        | Ok ast -> run_rules ~rules ~ctx:(ctx_of_path ~on_disk path) ~src ast)
      files
  in
  let impls =
    List.filter_map
      (fun (path, _, parsed) ->
        match parsed with
        | Ok (Rules.Impl str) -> Some (path, str)
        | Ok (Rules.Intf _) | Error _ -> None)
      files
  in
  let sources = List.map (fun (path, src, _) -> (path, src)) files in
  let phase2 =
    Project_rules.run ~disabled ~units_decl ~protocols_decl impls
    |> filter_suppressed ~sources
  in
  (* Sorted by (file, line, col, rule, message) and de-duplicated, so
     project reports and the baseline file are diff-stable across runs;
     only exact duplicates merge. *)
  List.sort_uniq Diagnostic.compare (phase1 @ phase2)

let lint_project ?(rules = Rules.all) ?(disabled = [])
    ?(units_decl = Units.empty_decl) ?(protocols_decl = Proto.empty_decl) roots
    =
  let files =
    discover roots
    |> List.map (fun path ->
           let src = try Syntax.read_file path with _e -> "" in
           let parsed = try Ok (parse_file path) with e -> Error e in
           (path, src, parsed))
  in
  project_core ~rules ~disabled ~units_decl ~protocols_decl ~on_disk:true files

let lint_project_strings ?(rules = Rules.all) ?(disabled = [])
    ?(units_decl = Units.empty_decl) ?(protocols_decl = Proto.empty_decl)
    sources =
  let files =
    List.map
      (fun (path, src) ->
        let parsed = try Ok (parse_string ~path src) with e -> Error e in
        (path, src, parsed))
      sources
  in
  project_core ~rules ~disabled ~units_decl ~protocols_decl ~on_disk:false files
