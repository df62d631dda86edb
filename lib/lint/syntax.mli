(** How vodlint reads OCaml syntax. Every pass ({!Rules}, {!Effects},
    {!Summaries}, {!Project_rules}, {!Units}, {!Hotpath}, {!Cfg},
    {!Proto}) and the file readers ({!Engine}, {!Baseline}) call these
    helpers instead of keeping a copy, so each rule about names,
    patterns, function shapes and declaration lines lives here once.
    All of it is untyped and purely syntactic. *)

(** {1 Names} *)

val lid_name : Longident.t -> string
(** A long identifier joined with dots: ["Vod_util.Pool.map"]. *)

val ident_of : Parsetree.expression -> string option
(** The {!lid_name} of a bare identifier expression; [None] for
    anything else. *)

val normalize : string -> string
(** Strip a leading [Stdlib.] component from a qualified name, so
    ["Stdlib.print_endline"] and ["print_endline"] coincide, and a
    leading [Vod_*] wrapper component when a module follows it, so
    ["Vod_util.Pool.map"] and ["Pool.map"] do. *)

val callee_name : Parsetree.expression -> string option
(** {!ident_of} then {!normalize}: the name by which a call's function
    position is looked up in the passes' name tables. *)

val pipeline :
  string ->
  (Asttypes.arg_label * Parsetree.expression) list ->
  (Parsetree.expression * Parsetree.expression) option
(** [pipeline name args] reads [x |> fn] and [fn @@ x] (a call whose
    normalized callee is [name]) as the call of [fn] on [x]:
    [Some (fn, x)], [None] for any other call. *)

val module_name_of_path : string -> string
(** ["lib/util/pool.ml"] → ["Pool"]: the module name a path defines,
    used to key cross-module lookups. *)

val module_of_key : string -> string
(** The module of a ["Module.fn"] key: everything before the first dot
    (the whole key when it has none). *)

val candidates : current_module:string -> string -> string list
(** The keys a callee name may be registered under, in lookup order,
    as seen from [current_module]: an unqualified [f] is
    [current_module.f]; a qualified name is tried as written, then by
    its last two components ([Vod_epf.Engine.solve] → [Engine.solve]).
    Callers apply their own {!normalize} first if they need it. *)

(** {1 Traversal} *)

val iter_children : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
(** [iter_children f e] applies [f] to each nearest subexpression of
    [e] (those reached through its patterns, cases and bindings
    included), in [Ast_iterator] order; [f] decides whether to go
    deeper. *)

val every_expr : (Parsetree.expression -> unit) -> Ast_iterator.iterator
(** An iterator that applies [f] to every expression it reaches, each
    before its subexpressions. *)

val iter_exprs : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
(** [iter_exprs f e] applies [f] to [e] and to every expression under
    it, each before its subexpressions. *)

val iter_structure_exprs : (Parsetree.expression -> unit) -> Parsetree.structure -> unit
(** {!iter_exprs} over every expression of a file. *)

(** {1 Patterns and functions} *)

val pat_vars : Parsetree.pattern -> string list
(** Every variable a pattern binds, aliases included. *)

val simple_var : Parsetree.pattern -> string option
(** The variable of a [x] or [(x : t)] pattern; [None] for any other
    shape. *)

val params :
  Parsetree.expression ->
  (Asttypes.arg_label * Parsetree.expression option * Parsetree.pattern) list
  * Parsetree.expression
(** Split a [fun a ~b ?(c = d) -> body] chain into its parameters
    (label, default, pattern) and its body. Locally abstract types are
    skipped, and a type constraint is looked through only when it wraps
    a [fun] or [function]. A [function] body stays the body. *)

val is_function : Parsetree.expression -> bool
(** Whether {!params} finds a parameter, or the body is a [function]. *)

val lambda_interior : Parsetree.expression -> Parsetree.expression
(** A lambda with every leading [fun], locally abstract type and type
    constraint stripped. *)

(** {1 Module-level definitions} *)

val bindings : Parsetree.structure -> (string * Parsetree.value_binding) list
(** Every value binding of a file, top level and named structure
    modules, in source order, each with the module path it sits under:
    [""] at top level, ["Sub"] or ["Sub.Inner"] in nested modules. *)

val qualify : string -> string -> string
(** [qualify prefix name] is [name] under a {!bindings} module path:
    ["Sub.name"], or [name] itself at top level. *)

type def = {
  d_key : string;  (** ["Module.fn"], or ["Module.Sub.fn"] in a nested module *)
  d_path : string;
  d_loc : Location.t;
  d_expr : Parsetree.expression;
}

val collect_defs : (string * Parsetree.structure) list -> def list
(** Every {!bindings} entry of every file whose pattern is a
    {!simple_var}, keyed by the file's module, in file then source
    order. *)

(** {1 Shared name lists} *)

val pool_entries : string list
(** The [Vod_util.Pool] entry points that run tasks in parallel
    (normalized names). *)

val pool_task_label : string -> string
(** The label of a pool entry's per-task argument: [~map] for
    [Pool.map_reduce], [~f] otherwise. *)

val is_pool_impl : string -> bool
(** Whether a path is the pool implementation ([.../util/pool.ml]),
    which the effect rules exempt. *)

val raise_family : string list
(** The explicit raisers: [raise], [raise_notrace], [failwith],
    [invalid_arg]. *)

val wallclock_names : string list
(** The wall-clock reads: [Sys.time], [Unix.gettimeofday], [Unix.time]. *)

(** {1 Files and declaration lines} *)

val in_dir : string -> string -> bool
(** [in_dir "lib/" path]: whether a reported path lies under a
    repo-relative directory, written with or without a leading [./]. *)

val read_file : string -> string
(** A whole file's bytes. Raises [Sys_error] if it cannot be read. *)

val decl_words : string -> string list
(** The words of one [units.decl] / [protocols.decl] line: everything
    from [#] on is dropped, the rest split on spaces and tabs. *)
