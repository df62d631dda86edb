(** Phase-1 of the whole-project analysis: syntactic per-function effect
    summaries, computed independently for each file. Cross-module
    propagation happens in {!Summaries}; the project rules that consume
    both live in {!Project_rules}. *)

(** {1 Effect kinds} *)

type kind =
  | Mutates_capture  (** writes state captured from an enclosing scope *)
  | Mutates_global   (** writes module-level / other-module state *)
  | Mutates_args     (** writes state reachable from its own parameters *)
  | Io               (** console / file / channel I/O *)
  | Random           (** the global [Stdlib.Random] generator *)
  | Wallclock        (** [Sys.time] / [Unix.gettimeofday] / [Unix.time] *)
  | Rng_state        (** advances an explicit [Vod_util.Rng] stream *)
  | Raises
      (** contains an explicit [raise]/[failwith]/[invalid_arg]/[assert]
          outside any [try] — the body may exit exceptionally. Stdlib
          partial functions ([Hashtbl.find], [Option.get], ...) are
          deliberately not counted: they raise on some inputs only, and
          counting them would make nearly everything may-raise. *)

(** A set of effect kinds (bitmask; cheap to union during fixpoints). *)
type set

val empty : set
(** The pure (no-effect) summary. *)

val singleton : kind -> set
(** The set containing exactly one effect kind. *)

val add : kind -> set -> set
(** [add k s] is [union (singleton k) s]. *)

val mem : kind -> set -> bool
(** Membership test. *)

val union : set -> set -> set
(** Set union — the join used when merging callee summaries. *)

val inter : set -> set -> set
(** Set intersection. *)

val remove : kind -> set -> set
(** Drop one kind from a set (used to mask [Raises] at in-try call
    sites). *)

val is_empty : set -> bool
(** Whether the set is {!empty} (the function looks pure). *)

val describe : kind -> string
(** Human-readable phrase, e.g. ["mutates captured state"]. *)

val to_string : set -> string
(** Comma-joined {!describe} of every member, in a fixed order. *)

(** {1 Value provenance} *)

(** Where a value came from, coarsely. Ordered by badness for the
    purposes of mutation classification: mutating a [Local] is harmless,
    mutating a [Captured] inside a pool task is a race. *)
type root = Local | Param | Global | Captured

val worst : root -> root -> root

(** {1 Analysis results} *)

type call = {
  callee : string;         (** normalized name, e.g. ["Engine.solve"] *)
  arg_roots : root list;
  call_loc : Location.t;
  in_try : bool;
      (** the call site sits lexically inside a [try] body (or a [match]
          with [exception] cases): the callee's [Raises] is caught here
          and must not propagate to the caller's summary *)
}

type result = {
  effects : set;           (** effects proven directly in the body *)
  calls : call list;       (** unresolved calls, for {!Summaries} *)
}

(** What a [Pool.*] call runs per task. *)
type target =
  | Closure of result  (** literal closure / local fn, capture-analyzed *)
  | Named of string    (** top-level function; resolve via summaries *)
  | Opaque             (** can't see into it (field access, param, ...) *)

type pool_site = {
  site_loc : Location.t;
  entry : string;          (** ["Pool.map"], ["Pool.iteri"], ... *)
  target : target;
}

type fn_summary = {
  fn_name : string;        (** name within the module, e.g. ["solve"] *)
  fn_loc : Location.t;
  fn_result : result;
}

type file_analysis = {
  fa_path : string;
  fa_module : string;      (** ["Engine"] for [lib/epf/engine.ml] *)
  fa_fns : fn_summary list;
  fa_sites : pool_site list;
}

val analyze_impl : path:string -> Parsetree.structure -> file_analysis
(** Analyze one implementation file: per-function effect summaries plus
    every pool submission site. Purely syntactic — never raises on odd
    but parseable code. *)
