(* Phase-1 of the whole-project analysis: per-function effect
   summaries.

   For every function in a file we compute, syntactically, whether its
   body (including every local closure it defines) mutates state it did
   not allocate itself, performs I/O, draws from the global [Random]
   generator, reads the wall clock, or advances an explicit
   [Vod_util.Rng] stream — and which other functions it calls, with a
   coarse classification of each argument's provenance. The summaries
   are joined across modules by [Summaries] (fixpoint over the call
   graph) and consumed by the project rules ([par-race],
   [wallclock-in-solver]).

   The analysis is untyped and deliberately conservative in one
   direction only: a mutation of a value whose provenance we cannot
   prove local is reported. Unknown callees (stdlib iteration, closures
   reached through record fields, function-typed parameters) are assumed
   pure — the dynamic jobs-1-vs-jobs-4 smoke test backstops what the
   static pass cannot see. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Effect kinds and sets                                               *)

type kind =
  | Mutates_capture  (* writes state captured from an enclosing scope *)
  | Mutates_global   (* writes module-level / other-module state *)
  | Mutates_args     (* writes state reachable from its own parameters *)
  | Io               (* console / file / channel I/O *)
  | Random           (* the global Stdlib.Random generator *)
  | Wallclock        (* Sys.time / Unix.gettimeofday / Unix.time *)
  | Rng_state        (* advances an explicit Vod_util.Rng stream *)
  | Raises           (* contains an explicit raise / failwith / assert *)

type set = int

let empty = 0

let bit = function
  | Mutates_capture -> 1
  | Mutates_global -> 2
  | Mutates_args -> 4
  | Io -> 8
  | Random -> 16
  | Wallclock -> 32
  | Rng_state -> 64
  | Raises -> 128

let add k s = s lor bit k
let mem k s = s land bit k <> 0
let union a b = a lor b
let inter a b = a land b
let remove k s = s land lnot (bit k)
let is_empty s = s = 0
let singleton k = bit k

let all_kinds =
  [ Mutates_capture; Mutates_global; Mutates_args; Io; Random; Wallclock;
    Rng_state; Raises ]

let describe = function
  | Mutates_capture -> "mutates captured state"
  | Mutates_global -> "mutates module-level state"
  | Mutates_args -> "mutates its arguments"
  | Io -> "performs I/O"
  | Random -> "draws from the global Random generator"
  | Wallclock -> "reads the wall clock"
  | Rng_state -> "advances an explicit Rng stream"
  | Raises -> "may raise"

let to_string s =
  all_kinds
  |> List.filter (fun k -> mem k s)
  |> List.map describe
  |> String.concat ", "

(* ------------------------------------------------------------------ *)
(* Value provenance                                                    *)

type root =
  | Local     (* allocated (or derived from an allocation) in this function *)
  | Param     (* reachable from one of this function's parameters *)
  | Global    (* module-level binding, here or in another module *)
  | Captured  (* bound in an enclosing function's scope *)

let rank = function Local -> 0 | Param -> 1 | Global -> 2 | Captured -> 3
let worst a b = if rank a >= rank b then a else b

(* ------------------------------------------------------------------ *)
(* Analysis results                                                    *)

type call = {
  callee : string;         (* normalized name, e.g. "Engine.solve" *)
  arg_roots : root list;
  call_loc : Location.t;
  in_try : bool;           (* lexically inside try/match-exception: the
                              callee's Raises is masked at this site *)
}

type result = {
  effects : set;
  calls : call list;
}

type target =
  | Closure of result   (* body analyzed with capture semantics *)
  | Named of string     (* top-level function, resolve via summaries *)
  | Opaque              (* an expression we cannot see into *)

type pool_site = {
  site_loc : Location.t;
  entry : string;          (* "Pool.map", "Pool.iteri", ... *)
  target : target;
}

type fn_summary = {
  fn_name : string;        (* name within the module, e.g. "solve" *)
  fn_loc : Location.t;
  fn_result : result;
}

type file_analysis = {
  fa_path : string;
  fa_module : string;      (* "Engine" for lib/epf/engine.ml *)
  fa_fns : fn_summary list;
  fa_sites : pool_site list;
}

(* ------------------------------------------------------------------ *)
(* Name tables                                                         *)

(* name -> indices (over the positional argument list) of the arguments
   the callee mutates. *)
let mutators =
  [
    (":=", [ 0 ]);
    ("incr", [ 0 ]);
    ("decr", [ 0 ]);
    ("Array.set", [ 0 ]);
    ("Array.unsafe_set", [ 0 ]);
    ("Array.fill", [ 0 ]);
    ("Array.blit", [ 2 ]);
    ("Array.sort", [ 1 ]);
    ("Array.stable_sort", [ 1 ]);
    ("Array.fast_sort", [ 1 ]);
    ("Bytes.set", [ 0 ]);
    ("Bytes.unsafe_set", [ 0 ]);
    ("Bytes.fill", [ 0 ]);
    ("Bytes.blit", [ 2 ]);
    ("Bytes.blit_string", [ 2 ]);
    ("String.set", [ 0 ]);
    ("Hashtbl.add", [ 0 ]);
    ("Hashtbl.replace", [ 0 ]);
    ("Hashtbl.remove", [ 0 ]);
    ("Hashtbl.reset", [ 0 ]);
    ("Hashtbl.clear", [ 0 ]);
    ("Hashtbl.filter_map_inplace", [ 1 ]);
    ("Buffer.add_string", [ 0 ]);
    ("Buffer.add_char", [ 0 ]);
    ("Buffer.add_bytes", [ 0 ]);
    ("Buffer.add_substring", [ 0 ]);
    ("Buffer.add_buffer", [ 0 ]);
    ("Buffer.clear", [ 0 ]);
    ("Buffer.reset", [ 0 ]);
    ("Buffer.truncate", [ 0 ]);
    ("Queue.add", [ 1 ]);
    ("Queue.push", [ 1 ]);
    ("Queue.pop", [ 0 ]);
    ("Queue.take", [ 0 ]);
    ("Queue.clear", [ 0 ]);
    ("Queue.transfer", [ 0; 1 ]);
    ("Stack.push", [ 1 ]);
    ("Stack.pop", [ 0 ]);
    ("Stack.clear", [ 0 ]);
    ("Atomic.set", [ 0 ]);
    ("Atomic.exchange", [ 0 ]);
    ("Atomic.incr", [ 0 ]);
    ("Atomic.decr", [ 0 ]);
    ("Atomic.fetch_and_add", [ 0 ]);
    ("Atomic.compare_and_set", [ 0 ]);
  ]

let io_names =
  [
    "print_endline"; "print_string"; "print_newline"; "print_int"; "print_float";
    "print_char"; "print_bytes"; "prerr_endline"; "prerr_string"; "prerr_newline";
    "read_line"; "read_int"; "read_int_opt"; "read_float";
    "output_string"; "output_char"; "output_bytes"; "output_value"; "output";
    "input_line"; "input_value"; "input_char"; "input_byte"; "really_input_string";
    "open_in"; "open_in_bin"; "open_out"; "open_out_bin"; "close_in"; "close_out";
    "close_in_noerr"; "close_out_noerr"; "flush"; "flush_all";
    "Sys.command"; "Sys.remove"; "Sys.rename"; "Sys.readdir"; "Sys.mkdir";
    "Sys.getenv"; "Sys.getenv_opt"; "Sys.file_exists"; "Sys.is_directory";
  ]

let io_prefixes = [ "Printf."; "Format."; "Scanf."; "Logs."; "Log."; "Out_channel."; "In_channel."; "Unix." ]

let rng_prefixes = [ "Rng." ]

(* Calls whose result aliases their first argument (so mutating the
   result mutates the argument). *)
let aliasing =
  [
    "!"; "Array.get"; "Array.unsafe_get"; "Bytes.get"; "String.get";
    "Hashtbl.find"; "Hashtbl.find_opt"; "Hashtbl.find_all";
    "Option.get"; "Option.value"; "List.hd"; "List.nth"; "List.nth_opt";
    "fst"; "snd"; "Atomic.get"; "Queue.peek"; "Queue.top"; "Stack.top";
  ]

(* Unix is almost entirely I/O; its two clock reads are classified more
   precisely (wallclock wins over the Unix. prefix). Raises counts the
   explicit raisers only: stdlib partial functions (Hashtbl.find,
   Option.get, ...) raise on *some* inputs, but counting them would make
   nearly every function may-raise and drown the missing-protect rule.
   assert is handled separately in the walker (it is not an apply). *)
let classify_prim name =
  let under prefix = String.starts_with ~prefix name in
  if List.mem name Syntax.wallclock_names then Some Wallclock
  else if under "Random." then Some Random
  else if List.exists under rng_prefixes then Some Rng_state
  else if List.mem name io_names then Some Io
  else if List.exists under io_prefixes then Some Io
  else if List.mem name Syntax.raise_family then Some Raises
  else None

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)

type lfn = {
  l_params : pattern list;
  l_body : expression;
}

type env = {
  vars : (string * root) list;
  fns : (string * lfn) list;
}

let lookup env n =
  match List.assoc_opt n env.vars with Some r -> r | None -> Global

let bind_pat env p root =
  { env with vars = List.map (fun n -> (n, root)) (Syntax.pat_vars p) @ env.vars }

let bind_name env n root = { env with vars = (n, root) :: env.vars }

(* Provenance of the value an expression evaluates to. Unknown
   applications are assumed to return fresh values (allocator-like);
   known accessors alias their subject. *)
let rec root_of env e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> lookup env n
  | Pexp_ident _ -> Global
  | Pexp_field (b, _) -> root_of env b
  | Pexp_constraint (b, _) -> root_of env b
  | Pexp_sequence (_, b) -> root_of env b
  | Pexp_let (_, _, b) -> root_of env b
  | Pexp_ifthenelse (_, t, Some e2) -> worst (root_of env t) (root_of env e2)
  | Pexp_apply (f, args) -> (
      match Syntax.callee_name f with
      | Some name when List.mem name aliasing -> (
          match args with
          | (_, a0) :: _ -> root_of env a0
          | [] -> Local)
      | _ -> Local)
  | _ -> Local

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)

type st = {
  mutable effects : set;
  mutable calls : call list;
  sites : pool_site list ref option;
      (* None while re-analyzing a closure with capture semantics, so
         nested pool sites are not recorded twice *)
  mutable expanding : string list;
      (* local functions being inlined (recursion guard) *)
  mutable try_depth : int;
      (* > 0 inside a try body (or a match with exception cases): raises
         there are caught locally and do not escape the function *)
}

let record_effect st k =
  (* Raises inside a try body is caught before it leaves the function.
     The handler may re-raise, but that re-raise is its own Raises. *)
  if k = Raises && st.try_depth > 0 then ()
  else st.effects <- add k st.effects

let mutation_effect st root =
  match root with
  | Local -> ()
  | Param -> record_effect st Mutates_args
  | Global -> record_effect st Mutates_global
  | Captured -> record_effect st Mutates_capture

let demote env =
  {
    env with
    vars =
      List.map
        (fun (n, r) ->
          (n, match r with Local | Param -> Captured | Global | Captured -> r))
        env.vars;
  }

(* A local function's parameter patterns and body, for inlining at its
   call sites; a [function] body keeps its cases for [walk_fn]. *)
let lfn_of e =
  let ps, body = Syntax.params e in
  { l_params = List.map (fun (_, _, p) -> p) ps; l_body = body }

let rec walk st env e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      (* A bare reference to an effect primitive (e.g. [List.iter
         print_endline xs]) carries the effect even though we cannot see
         the call. *)
      match classify_prim (Syntax.normalize (Syntax.lid_name txt)) with
      | Some k -> record_effect st k
      | None -> ())
  | Pexp_setfield (obj, _, v) ->
      mutation_effect st (root_of env obj);
      walk st env obj;
      walk st env v
  | Pexp_apply (f, args) -> walk_apply st env e f args
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> walk_fn st env e
  | Pexp_let (Asttypes.Nonrecursive, vbs, body) ->
      let env' =
        List.fold_left
          (fun env' vb ->
            if Syntax.is_function vb.pvb_expr then begin
              walk_fn st env vb.pvb_expr;
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } ->
                  let env' = bind_name env' txt Local in
                  { env' with fns = (txt, lfn_of vb.pvb_expr) :: env'.fns }
              | _ -> bind_pat env' vb.pvb_pat Local
            end
            else begin
              walk st env vb.pvb_expr;
              bind_pat env' vb.pvb_pat (root_of env vb.pvb_expr)
            end)
          env vbs
      in
      walk st env' body
  | Pexp_let (Asttypes.Recursive, vbs, body) ->
      let env' =
        List.fold_left
          (fun env' vb ->
            if Syntax.is_function vb.pvb_expr then
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } ->
                  let env' = bind_name env' txt Local in
                  { env' with fns = (txt, lfn_of vb.pvb_expr) :: env'.fns }
              | _ -> bind_pat env' vb.pvb_pat Local
            else bind_pat env' vb.pvb_pat Local)
          env vbs
      in
      List.iter (fun vb -> walk st env' vb.pvb_expr) vbs;
      walk st env' body
  | Pexp_match (scrut, cases) ->
      let has_exn_case =
        List.exists
          (fun c ->
            match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
          cases
      in
      if has_exn_case then begin
        st.try_depth <- st.try_depth + 1;
        walk st env scrut;
        st.try_depth <- st.try_depth - 1
      end
      else walk st env scrut;
      let r = root_of env scrut in
      List.iter
        (fun c ->
          let root =
            match c.pc_lhs.ppat_desc with Ppat_exception _ -> Local | _ -> r
          in
          let env' = bind_pat env c.pc_lhs root in
          Option.iter (walk st env') c.pc_guard;
          walk st env' c.pc_rhs)
        cases
  | Pexp_try (body, cases) ->
      st.try_depth <- st.try_depth + 1;
      walk st env body;
      st.try_depth <- st.try_depth - 1;
      List.iter
        (fun c ->
          let env' = bind_pat env c.pc_lhs Local in
          Option.iter (walk st env') c.pc_guard;
          walk st env' c.pc_rhs)
        cases
  | Pexp_for (pat, lo, hi, _, body) ->
      walk st env lo;
      walk st env hi;
      walk st (bind_pat env pat Local) body
  | Pexp_assert inner ->
      (* assert false and failed invariant asserts both raise. *)
      record_effect st Raises;
      walk st env inner
  | _ ->
      (* Remaining forms bind nothing interesting: iterate children in
         the current environment. *)
      Syntax.iter_children (walk st env) e

and walk_fn st env e =
  match e.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (walk st env) default;
      walk_fn st (bind_pat env pat Param) body
  | Pexp_function cases ->
      List.iter
        (fun c ->
          let env' = bind_pat env c.pc_lhs Param in
          Option.iter (walk st env') c.pc_guard;
          walk st env' c.pc_rhs)
        cases
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> walk_fn st env body
  | _ -> walk st env e

and walk_apply st env e f args =
  let walk_args () = List.iter (fun (_, a) -> walk st env a) args in
  match Syntax.ident_of f with
  | None ->
      walk st env f;
      walk_args ()
  | Some raw -> (
      match Syntax.pipeline (Syntax.normalize raw) args with
      | Some ({ pexp_desc = Pexp_ident { txt; _ }; _ }, x) ->
          walk st env x;
          handle_call st env e (Syntax.lid_name txt) [ (Asttypes.Nolabel, x) ]
      | _ ->
          walk_args ();
          handle_call st env e raw args)

and handle_call st env e raw args =
  let name = Syntax.normalize raw in
  let arg_roots = List.map (fun (_, a) -> root_of env a) args in
  if List.mem name Syntax.pool_entries then record_pool_site st env e name args;
  match List.assoc_opt name mutators with
  | Some idxs ->
      let n_args = List.length arg_roots in
      if List.exists (fun i -> i < n_args) idxs then
        List.iter
          (fun i ->
            match List.nth_opt arg_roots i with
            | Some r -> mutation_effect st r
            | None -> ())
          idxs
      else
        (* Partial application: fall back to the worst provenance among
           the arguments we can see. *)
        mutation_effect st (List.fold_left worst Local arg_roots)
  | None -> (
      match classify_prim name with
      | Some k -> record_effect st k
      | None ->
          if name <> "|>" && name <> "@@" then
            st.calls <-
              {
                callee = name;
                arg_roots;
                call_loc = e.pexp_loc;
                in_try = st.try_depth > 0;
              }
              :: st.calls)

(* Analyze an expression as a task body: everything bound outside it is
   captured. Calls to local functions are expanded inline (they cannot
   be resolved through the cross-module summary table). *)
and analyze_capture st0 env expr_kind =
  (* try_depth restarts at 0: the closure's raises happen when it is
     *called*, outside whatever try happens to surround its definition. *)
  let st =
    { effects = empty; calls = []; sites = None; expanding = st0.expanding;
      try_depth = 0 }
  in
  let denv = demote env in
  (match expr_kind with
  | `Expr e -> walk_fn st denv e
  | `Local_fn l ->
      let env' = List.fold_left (fun acc p -> bind_pat acc p Param) denv l.l_params in
      walk_fn st env' l.l_body);
  (* Expand local callees under the same capture semantics. *)
  let rec expand st =
    let pending =
      List.filter
        (fun c ->
          (not (String.contains c.callee '.'))
          && List.mem_assoc c.callee env.fns
          && not (List.mem c.callee st.expanding))
        st.calls
    in
    match pending with
    | [] -> ()
    | { callee; _ } :: _ ->
        st.calls <- List.filter (fun c -> c.callee <> callee) st.calls;
        st.expanding <- callee :: st.expanding;
        let l = List.assoc callee env.fns in
        let inner =
          { effects = empty; calls = []; sites = None; expanding = st.expanding;
            try_depth = 0 }
        in
        let env' =
          List.fold_left (fun acc p -> bind_pat acc p Param) (demote env) l.l_params
        in
        walk_fn inner env' l.l_body;
        st.effects <- union st.effects inner.effects;
        st.calls <- List.rev_append inner.calls st.calls;
        expand st
  in
  expand st;
  { effects = st.effects; calls = st.calls }

and record_pool_site st env e entry args =
  match st.sites with
  | None -> ()
  | Some sites ->
      let label = Syntax.pool_task_label entry in
      let task =
        List.find_map
          (fun (lbl, a) ->
            match lbl with
            | Asttypes.Labelled l when l = label -> Some a
            | _ -> None)
          args
      in
      let target =
        match task with
        | None -> Opaque
        | Some a -> (
            let rec strip a =
              match a.pexp_desc with
              | Pexp_constraint (b, _) -> strip b
              | _ -> a
            in
            let a = strip a in
            match a.pexp_desc with
            | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
                Closure (analyze_capture st env (`Expr a))
            | Pexp_ident { txt = Longident.Lident n; _ }
              when List.mem_assoc n env.fns ->
                Closure (analyze_capture st env (`Local_fn (List.assoc n env.fns)))
            | Pexp_ident { txt; _ } -> Named (Syntax.normalize (Syntax.lid_name txt))
            | _ -> Closure (analyze_capture st env (`Expr a)))
      in
      sites := { site_loc = e.pexp_loc; entry; target } :: !sites

(* ------------------------------------------------------------------ *)
(* File analysis                                                       *)

let analyze_value_binding ~sites ~prefix vb =
  let name =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | _ -> None
  in
  let st =
    { effects = empty; calls = []; sites = Some sites; expanding = [];
      try_depth = 0 }
  in
  let env = { vars = []; fns = [] } in
  walk_fn st env vb.pvb_expr;
  match name with
  | None -> None
  | Some n ->
      Some
        {
          fn_name = Syntax.qualify prefix n;
          fn_loc = vb.pvb_loc;
          fn_result = { effects = st.effects; calls = st.calls };
        }

let analyze_impl ~path (str : structure) =
  let sites = ref [] in
  let fns =
    List.filter_map
      (fun (prefix, vb) -> analyze_value_binding ~sites ~prefix vb)
      (Syntax.bindings str)
  in
  {
    fa_path = path;
    fa_module = Syntax.module_name_of_path path;
    fa_fns = fns;
    fa_sites = List.rev !sites;
  }
