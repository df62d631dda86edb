(** Phase-3b of the whole-project analysis: heap allocation in hot
    paths ([alloc-in-hot]).

    The hot set is the call-graph closure of

    - every {!Vod_util.Pool} task body ([Pool.map]/[mapi]/[iteri]/
      [map_reduce] arguments), and
    - a fixed root table covering the serving inner loops:
      [Serve.Loop.play_direct]/[play_faulted]/[play_soa]/[run_soa],
      [Resil.Capacity.fits]/[reserve]/[expire], [Resil.Router.route],
      [Fleet.serve]/[serve_local]/[fetch], [Metrics.add_stream], plus the
      Benders master's [Master.solve].

    Each root carries the {!Vod_obs} phase-timer name it runs under and
    a rank, so findings cite the hot phase they sit in and can be
    triaged hottest-first.

    Inside a hot function the analysis flags allocations that happen
    {e per iteration} (inside a syntactic loop, an iterator callback,
    or a function reached from one — "loop-hot") or {e per call} for
    functions that are themselves called from loops:

    - closure allocation (a [fun] literal evaluated in the hot
      context, including iterator callbacks);
    - list building ([::], [List.map] and friends, [@]);
    - tuple construction and [ref] cells;
    - float boxing via polymorphic [compare]/[min]/[max] on floats or
      [Hashtbl] operations keyed by floats (flagged anywhere in a hot
      function — boxing is per call regardless of loops);
    - records and allocating calls ([Array.make], [Hashtbl.create],
      [Printf.sprintf], ...) only when inside a syntactic loop —
      building a data structure once per call is normal.

    Messages are line-number-free so baselines survive reformatting.
    [vodlint-disable alloc-in-hot] suppression applies as usual. *)

val run : (string * Parsetree.structure) list -> Diagnostic.t list
(** Run the hot-path allocation analysis over every implementation
    file at once. Diagnostics are unsorted and unsuppressed —
    {!Engine} applies [vodlint-disable] filtering and ordering. *)
