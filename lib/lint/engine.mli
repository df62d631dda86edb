(** File discovery, parsing and rule execution for vodlint.

    The engine returns diagnostics; it never prints. Parse failures
    surface as a synthetic ["parse-error"] diagnostic rather than an
    exception, so one unreadable file cannot hide findings in the
    rest of the tree. *)

(** All [.ml]/[.mli] files under the given roots (files are accepted
    too), sorted; [_build], [.git], [lintfixture] (parse-only lint
    test fixtures) and dot-directories are skipped.
    Raises [Invalid_argument] on a nonexistent root. *)
val discover : string list -> string list

(** Lint an in-memory snippet. [path] determines which path-scoped
    rules apply (e.g. ["lib/epf/engine.ml"] enables the lib-only and
    division rules) and is the file reported in diagnostics. *)
val lint_string : ?rules:Rules.t list -> path:string -> string -> Diagnostic.t list

(** Lint one file on disk. *)
val lint_file : ?rules:Rules.t list -> string -> Diagnostic.t list

(** Discover and lint every source file under the roots; diagnostics
    are sorted and de-duplicated. *)
val lint_paths : ?rules:Rules.t list -> string list -> Diagnostic.t list

(** Project mode: phase-1 rules per file, then the {!Project_rules}
    effect-summary rules over every implementation file at once
    ([disabled] names phase-2 rule ids to skip). [vodlint-disable]
    comments suppress findings from both phases. The merged list is
    sorted by (file, line, col, rule, message) and de-duplicated (only
    exact duplicates merge), so output and baselines are diff-stable.
    Baseline subtraction is the caller's job ({!Baseline.apply}).
    [units_decl] (default {!Units.empty_decl}) seeds the phase-3 units
    dataflow; [protocols_decl] (default {!Proto.empty_decl}) seeds the
    phase-4 protocol dataflow. *)
val lint_project :
  ?rules:Rules.t list ->
  ?disabled:string list ->
  ?units_decl:Units.decl ->
  ?protocols_decl:Proto.decl ->
  string list ->
  Diagnostic.t list

(** Same, over in-memory [(path, source)] pairs — the test entry point
    for multi-file fixtures. *)
val lint_project_strings :
  ?rules:Rules.t list ->
  ?disabled:string list ->
  ?units_decl:Units.decl ->
  ?protocols_decl:Proto.decl ->
  (string * string) list ->
  Diagnostic.t list
