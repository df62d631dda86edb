(* Whole-project join of the per-file effect summaries from [Effects]:
   a table keyed by normalized ["Module.fn"] plus a monotone fixpoint
   that propagates effects through cross-module calls. *)

type entry = {
  e_path : string;
  e_loc : Location.t;
  mutable e_effects : Effects.set;
  e_calls : Effects.call list;
}

type t = {
  table : (string, entry) Hashtbl.t;
  analyses : Effects.file_analysis list;
}

(* Keys under which a function is registered: ["Module.fn"] always, and
   for functions of nested modules ["Module.Sub.fn"] as well (the
   flattened [fn_name] already carries the ["Sub."] prefix). *)
let keys_of fa (fn : Effects.fn_summary) = [ fa.Effects.fa_module ^ "." ^ fn.fn_name ]

let build analyses =
  (* The pool implementation is excluded from the table: its entry
     points look wildly effectful from the inside (worker domains writing
     result slots), but the whole point of its contract is that
     [Pool.map] etc. are deterministic whenever their tasks are — which
     is exactly what the [par-race] rule checks at every call site.
     Leaving it in would smear its internal effects over every caller. *)
  let analyses =
    List.filter
      (fun (fa : Effects.file_analysis) -> not (Syntax.is_pool_impl fa.fa_path))
      analyses
  in
  let table = Hashtbl.create 256 in
  List.iter
    (fun (fa : Effects.file_analysis) ->
      List.iter
        (fun (fn : Effects.fn_summary) ->
          List.iter
            (fun key ->
              (* First binding wins: duplicate module names across
                 libraries are rare here and ambiguous anyway. *)
              if not (Hashtbl.mem table key) then
                Hashtbl.add table key
                  {
                    e_path = fa.fa_path;
                    e_loc = fn.fn_loc;
                    e_effects = fn.fn_result.effects;
                    e_calls = fn.fn_result.calls;
                  })
            (keys_of fa fn))
        fa.fa_fns)
    analyses;
  { table; analyses }

(* Resolve a callee name against the table, from the point of view of
   [current_module]; the names are already normalized. *)
let resolve t ~current_module name =
  List.find_map (Hashtbl.find_opt t.table) (Syntax.candidates ~current_module name)

(* Map a callee's own effects onto the caller, given the provenance of
   the arguments at this call site: the callee mutating *its* arguments
   means the caller mutates whatever it passed in. *)
let effects_at_site ~(callee : Effects.set) ~(arg_roots : Effects.root list)
    ~in_try =
  let open Effects in
  let direct =
    inter callee
      (union
         (union
            (union (singleton Mutates_capture) (singleton Mutates_global))
            (union (singleton Io) (singleton Random)))
         (union
            (union (singleton Wallclock) (singleton Rng_state))
            (singleton Raises)))
  in
  (* A raise inside the callee is caught by the try around this call
     site; the other effects still happen before it is caught. *)
  let direct = if in_try then remove Raises direct else direct in
  if mem Mutates_args callee then
    match List.fold_left worst Local arg_roots with
    | Local -> direct
    | Param -> add Mutates_args direct
    | Global -> add Mutates_global direct
    | Captured -> add Mutates_capture direct
  else direct

(* One propagation sweep; returns true if any entry grew. *)
let sweep t =
  let changed = ref false in
  Hashtbl.iter
    (fun key entry ->
      let current_module = Syntax.module_of_key key in
      List.iter
        (fun (c : Effects.call) ->
          match resolve t ~current_module c.callee with
          | None -> ()
          | Some callee ->
              let contributed =
                effects_at_site ~callee:callee.e_effects ~arg_roots:c.arg_roots
                  ~in_try:c.in_try
              in
              let merged = Effects.union entry.e_effects contributed in
              if merged <> entry.e_effects then begin
                entry.e_effects <- merged;
                changed := true
              end)
        entry.e_calls)
    t.table;
  !changed

let fixpoint t =
  (* Effect sets only grow and are drawn from a finite lattice, so this
     terminates; the bound is a safety valve, not a tuning knob. *)
  let max_sweeps = 64 in
  let rec go n = if n < max_sweeps && sweep t then go (n + 1) in
  go 0

let of_analyses analyses =
  let t = build analyses in
  fixpoint t;
  t

(* Effects of an arbitrary [Effects.result] (e.g. a capture-analyzed
   closure body) once its residual calls are resolved through the
   table. Calls that resolve nowhere are assumed pure. *)
let effects_of_result t ~current_module (r : Effects.result) =
  List.fold_left
    (fun acc (c : Effects.call) ->
      match resolve t ~current_module c.callee with
      | None -> acc
      | Some callee ->
          Effects.union acc
            (effects_at_site ~callee:callee.e_effects ~arg_roots:c.arg_roots
               ~in_try:c.in_try))
    r.effects r.calls

let effects_of_name t ~current_module name =
  match resolve t ~current_module name with
  | None -> None
  | Some e -> Some e.e_effects

(* Whether a call to [name], as seen from [current_module], can exit
   exceptionally per the closed summaries. Unresolvable callees are
   assumed non-raising — same optimistic direction as the effect rules,
   backstopped here by the syntactic raisers the CFG sees directly. *)
let may_raise t ~current_module name =
  match effects_of_name t ~current_module name with
  | Some e -> Effects.mem Effects.Raises e
  | None -> false

let find t key = Hashtbl.find_opt t.table key
