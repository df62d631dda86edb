(** Phase-2 (whole-project) rules, run over the {!Effects} /
    {!Summaries} view of every implementation file at once:

    - [par-race] — a task reaching [Pool.map/mapi/iteri/map_reduce]
      (directly, through a local helper, or through a cross-module
      callee) mutates captured or module-level state, performs I/O, or
      uses [Random]/wall-clock. Any of these breaks the pool's
      bit-determinism contract. Task-indexed [Vod_util.Rng] streams are
      the sanctioned pattern and do not fire.
    - [float-order] — float accumulation inside [Hashtbl.iter]/[fold];
      the sum depends on table insertion/resize history.
    - [wallclock-in-solver] — [Sys.time]/[Unix.gettimeofday]/[Unix.time]
      anywhere under [lib/] except [lib/obs/], the quarantined metrics
      layer whose timers are the sanctioned clock users.
    - [obs-taint] — the {!Vod_obs.Obs} reading API
      ([read]/[names]/[report]/[to_json]/[write_json]) anywhere under
      [lib/] except [lib/obs/] itself: a metric value read back inside
      the library could feed solver numerics, silently breaking the
      determinism contract the recording side is careful to keep.
      Exporting registries belongs to the [bin/] and [bench/] front
      ends.

    Phase-3 rules also dispatch from here:

    - [unit-mismatch] / [unit-unannotated-boundary] — the {!Units}
      interprocedural units-of-measure dataflow, seeded from name
      suffixes and the [units_decl] signature file;
    - [alloc-in-hot] — the {!Hotpath} allocation analysis over the
      call-graph closure of Pool task bodies and the serving inner
      loops.

    Phase-4 rules (the {!Cfg}/{!Proto} protocol dataflow, seeded from
    [protocols_decl]):

    - [proto-leak] — an acquired value can reach the function's normal
      exit unreleased, or the acquire's result is discarded;
    - [proto-double-release] — a release applied to a value already
      definitely released;
    - [missing-protect] — the acquire/release span crosses a call that
      may raise and the exceptional path skips the release
      ([Fun.protect] is the fix). *)

type t = { id : string; doc : string }

val all : t list
(** Every project rule, in presentation order (for [--rules]). *)

val find : string -> t option
(** Look a rule up by id. *)

val run :
  ?disabled:string list ->
  ?units_decl:Units.decl ->
  ?protocols_decl:Proto.decl ->
  (string * Parsetree.structure) list ->
  Diagnostic.t list
(** Run every enabled project rule over the given [(path, ast)] pairs
    (implementation files only). [units_decl] (default
    {!Units.empty_decl}) seeds the units dataflow; without it the
    boundary rule is vacuous. [protocols_decl] (default
    {!Proto.empty_decl}) seeds the protocol dataflow; without it the
    three [proto-*]/[missing-protect] rules are vacuous. Diagnostics
    are unsorted and unsuppressed — {!Engine} applies
    [vodlint-disable] filtering and ordering. *)
