(* Phase-2 rules: whole-project checks that run on the effect summaries
   (and, for float-order, the raw parsetrees) of every implementation
   file at once. They exist to defend the two determinism contracts the
   repro depends on: the pool's bit-identical-at-any-job-count contract
   (par-race) and run-to-run reproducibility of every reported number
   (float-order, wallclock-in-solver). *)

open Parsetree

type t = { id : string; doc : string }

let all =
  [
    {
      id = "par-race";
      doc =
        "task reaching Pool.map/mapi/iteri/map_reduce (transitively) mutates \
         captured or module-level state, does I/O, or uses Random/wall-clock";
    };
    {
      id = "float-order";
      doc =
        "float accumulation inside Hashtbl.iter/fold: the sum depends on \
         table history; fold over sorted keys instead";
    };
    {
      id = "wallclock-in-solver";
      doc =
        "Sys.time/Unix.gettimeofday in lib/ outside lib/obs: wall-clock \
         readings must never feed solver numerics (the metrics layer is the \
         one quarantined clock user)";
    };
    {
      id = "obs-taint";
      doc =
        "Obs reading API (Obs.read/names/report/to_json/write_json) used in \
         lib/ outside lib/obs: metric values must never flow back into \
         solver numerics; reading belongs to the bin/ and bench/ front ends";
    };
    {
      id = "unit-mismatch";
      doc =
        "units-of-measure conflict: adding/subtracting/comparing values of \
         different inferred units, or passing an argument whose unit \
         contradicts the parameter's declared or name-derived unit (seeded \
         from _gb/_mbps/_s/... suffixes and units.decl)";
    };
    {
      id = "unit-unannotated-boundary";
      doc =
        "a unit-carrying value flows into a parameter of a units.decl-covered \
         core module that has no declared or name-derived unit; annotate the \
         parameter in units.decl or give it a unit-suffix name";
    };
    {
      id = "alloc-in-hot";
      doc =
        "heap allocation (closure, list, tuple, ref, boxed float) inside the \
         call-graph closure of Pool task bodies or the serving inner loops \
         (Loop/Capacity/Router/Fleet/Metrics), ranked by obs phase";
    };
    {
      id = "proto-leak";
      doc =
        "a value acquired through a protocols.decl acquire function \
         (Loop.create, Pool.create, open_out, ...) can reach the end of its \
         function on some normal path without its declared release, or its \
         result is discarded outright";
    };
    {
      id = "proto-double-release";
      doc =
        "a declared release function applied to a value already released on \
         every path to that point (close_out twice, Loop.finish after \
         Loop.finish, ...)";
    };
    {
      id = "missing-protect";
      doc =
        "every normal path releases the acquired value, but the span crosses \
         a call that may raise and the exceptional path skips the release; \
         wrap the span in Fun.protect ~finally";
    };
  ]

let find id = List.find_opt (fun r -> r.id = id) all

let in_lib = Syntax.in_dir "lib/"

(* lib/obs is the quarantined observability layer: the one lib/
   directory allowed to read the clock (wallclock-in-solver) and to
   read registries back (obs-taint) — its whole purpose. *)
let in_obs = Syntax.in_dir "lib/obs/"

(* ------------------------------------------------------------------ *)
(* par-race                                                            *)

let race_kinds =
  Effects.
    [
      (Mutates_capture, "mutates captured state");
      (Mutates_global, "mutates module-level state");
      (Io, "performs I/O");
      (Random, "draws from the global Random generator");
      (Wallclock, "reads the wall clock");
    ]

let race_reasons effects =
  List.filter_map
    (fun (k, msg) -> if Effects.mem k effects then Some msg else None)
    race_kinds

(* The pool implementation itself writes per-task result slots from
   inside its own worker loop; that is the one sanctioned shared-state
   mutation (ordered, disjoint indices). *)
let par_race ~table (fa : Effects.file_analysis) =
  if Syntax.is_pool_impl fa.fa_path then []
  else
    List.filter_map
      (fun (site : Effects.pool_site) ->
        let effects =
          match site.target with
          | Effects.Closure r ->
              Summaries.effects_of_result table ~current_module:fa.fa_module r
          | Effects.Named n -> (
              match
                Summaries.effects_of_name table ~current_module:fa.fa_module n
              with
              | Some e -> e
              | None -> Effects.empty)
          | Effects.Opaque -> Effects.empty
        in
        match race_reasons effects with
        | [] -> None
        | reasons ->
            Some
              (Diagnostic.make ~file:fa.fa_path ~loc:site.site_loc
                 ~rule:"par-race"
                 (Printf.sprintf
                    "task passed to %s %s; parallel tasks would race and break \
                     the pool's bit-determinism contract (thread per-task \
                     state through the function or use the task-indexed Rng \
                     streams)"
                    site.entry
                    (String.concat ", " reasons))))
      fa.fa_sites

(* ------------------------------------------------------------------ *)
(* float-order                                                         *)

let float_ops = [ "+."; "-."; "*." ]

let mentions name e =
  let found = ref false in
  Syntax.iter_exprs
    (fun ce ->
      match ce.pexp_desc with
      | Pexp_ident { txt = Longident.Lident n; _ } when n = name -> found := true
      | _ -> ())
    e;
  !found

(* A [fun] chain's parameter patterns and body. Unlike [Syntax.params],
   a type constraint ends the chain. *)
let rec fun_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
      let ps, b = fun_params body in
      (pat :: ps, b)
  | Pexp_newtype (_, body) -> fun_params body
  | _ -> ([], e)

(* The plain variables of a pattern; unlike [Syntax.pat_vars], [as]
   aliases are left out. *)
let pat_names p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self pp ->
          (match pp.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self pp);
    }
  in
  it.pat it p;
  !acc

let is_float_op f =
  match Syntax.ident_of f with Some op -> List.mem op float_ops | None -> false

(* Flag float-arithmetic applications inside [body] where some operand
   mentions one of [names] (fold accumulators), at the operator's
   location. *)
let float_ops_mentioning ~file ~names body =
  let diags = ref [] in
  Syntax.iter_exprs
    (fun ce ->
      match ce.pexp_desc with
      | Pexp_apply (f, args)
        when is_float_op f
             && List.exists
                  (fun (_, a) -> List.exists (fun n -> mentions n a) names)
                  args ->
          diags :=
            Diagnostic.make ~file ~loc:ce.pexp_loc ~rule:"float-order"
              "float accumulation inside Hashtbl.fold: the total depends on \
               table insertion/resize history; fold over sorted keys \
               (Stats_acc.sorted_keys) instead"
            :: !diags
      | _ -> ())
    body;
  !diags

(* Flag [r := rhs] inside an iter body where [rhs] reads [r] back and
   performs float arithmetic — an order-dependent running sum. *)
let float_accum_assigns ~file body =
  let diags = ref [] in
  let has_float_op e =
    let found = ref false in
    Syntax.iter_exprs
      (fun ce ->
        match ce.pexp_desc with
        | Pexp_apply (f, _) when is_float_op f -> found := true
        | _ -> ())
      e;
    !found
  in
  Syntax.iter_exprs
    (fun ce ->
      match ce.pexp_desc with
      | Pexp_apply (f, [ (_, lhs); (_, rhs) ]) when Syntax.ident_of f = Some ":=" -> (
          match Syntax.ident_of lhs with
          | Some r when mentions r rhs && has_float_op rhs ->
              diags :=
                Diagnostic.make ~file ~loc:ce.pexp_loc ~rule:"float-order"
                  "float accumulation inside Hashtbl.iter: the running sum \
                   depends on table insertion/resize history; fold over \
                   sorted keys (Stats_acc.sorted_keys) instead"
                :: !diags
          | _ -> ())
      | _ -> ())
    body;
  !diags

let float_order ~file (str : structure) =
  let diags = ref [] in
  Syntax.iter_structure_exprs
    (fun ce ->
      match ce.pexp_desc with
      | Pexp_apply (f, (_, fn) :: _) -> (
          match (Syntax.callee_name f, fun_params fn) with
          | Some "Hashtbl.iter", (_ :: _, body) ->
              diags := float_accum_assigns ~file body @ !diags
          | Some "Hashtbl.fold", ([ _; _; acc_pat ], body) ->
              let names = pat_names acc_pat in
              if names <> [] then
                diags := float_ops_mentioning ~file ~names body @ !diags
          | _ -> ())
      | _ -> ())
    str;
  !diags

(* ------------------------------------------------------------------ *)
(* wallclock-in-solver and obs-taint                                   *)

(* Every mention under lib/, outside lib/obs, of an identifier whose
   normalized name is in [names]. *)
let quarantined ~rule ~names ~message ~file (str : structure) =
  if (not (in_lib file)) || in_obs file then []
  else begin
    let diags = ref [] in
    Syntax.iter_structure_exprs
      (fun ce ->
        match ce.pexp_desc with
        | Pexp_ident { txt; _ }
          when List.mem (Syntax.normalize (Syntax.lid_name txt)) names ->
            diags := Diagnostic.make ~file ~loc:ce.pexp_loc ~rule message :: !diags
        | _ -> ())
      str;
    !diags
  end

let wallclock =
  quarantined ~rule:"wallclock-in-solver" ~names:Syntax.wallclock_names
    ~message:
      "wall-clock reading in lib/: time must never feed solver numerics; \
       derive values from inputs, or suppress with the invariant that this \
       only decorates reports"

(* The recording half of Vod_obs.Obs (incr/observe/push/phase/...) is
   free to appear anywhere: it is write-only and no-ops without a
   registry. The *reading* half is how a metric value could leak back
   into solver numerics, so under lib/ (outside lib/obs itself) any
   mention of it is a finding. Matching is on the normalized qualified
   name, which covers [Vod_obs.Obs.read], [Obs.read] after [module Obs
   = Vod_obs.Obs], and [Obs.read] under [open Vod_obs] alike. *)
let obs_taint =
  quarantined ~rule:"obs-taint"
    ~names:[ "Obs.read"; "Obs.names"; "Obs.report"; "Obs.to_json"; "Obs.write_json" ]
    ~message:
      "Obs reading API in lib/: a metric value read here could feed solver \
       numerics and break determinism; export registries from the bin/ or \
       bench/ front ends instead"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let run ?(disabled = []) ?(units_decl = Units.empty_decl)
    ?(protocols_decl = Proto.empty_decl) (files : (string * structure) list) =
  let enabled id = not (List.mem id disabled) in
  let analyses =
    List.map (fun (path, str) -> Effects.analyze_impl ~path str) files
  in
  let table = Summaries.of_analyses analyses in
  let per_file =
    List.concat_map
      (fun ((path, str), fa) ->
        (if enabled "par-race" then par_race ~table fa else [])
        @ (if enabled "float-order" then float_order ~file:path str else [])
        @ (if enabled "wallclock-in-solver" then wallclock ~file:path str
           else [])
        @ (if enabled "obs-taint" then obs_taint ~file:path str else []))
      (List.combine files analyses)
  in
  let units_diags =
    let mismatch = enabled "unit-mismatch" in
    let boundary = enabled "unit-unannotated-boundary" in
    if mismatch || boundary then
      Units.run ~decl:units_decl ~mismatch ~boundary files
    else []
  in
  let hot_diags = if enabled "alloc-in-hot" then Hotpath.run files else [] in
  let proto_diags =
    let leak = enabled "proto-leak" in
    let double = enabled "proto-double-release" in
    let protect = enabled "missing-protect" in
    if leak || double || protect then
      Proto.run ~decl:protocols_decl ~leak ~double ~protect ~summaries:table
        files
    else []
  in
  per_file @ units_diags @ hot_diags @ proto_diags
