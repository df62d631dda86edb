(* The vodlint rule registry.

   Each rule walks one file's parsetree with an [Ast_iterator] and
   appends findings to a shared accumulator. Rules are deliberately
   syntactic heuristics: without typing information we cannot prove a
   [compare] is applied to floats, so each rule documents the pattern it
   keys on and the audit relies on suppression comments for the rare
   justified exception. The invariants themselves come from the EPF /
   Lagrangian solver's needs (paper Sec. V): exact potential-function
   bookkeeping breaks under NaN-unsound comparisons, swallowed
   exceptions, and silent division blow-ups. *)

open Parsetree

type ctx = {
  path : string;       (* path as reported in diagnostics *)
  in_lib : bool;       (* under lib/ — library-only rules *)
  in_div_scope : bool; (* under lib/epf/ or lib/lp/ — unguarded-div rule *)
  on_disk : bool;      (* false when linting an in-memory string (tests) *)
}

type ast = Impl of structure | Intf of signature

type t = {
  id : string;
  doc : string;
  check : ctx -> ast -> Diagnostic.t list;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let is_float_const e =
  match e.pexp_desc with Pexp_constant (Pconst_float _) -> true | _ -> false

(* Collect every simple identifier occurring in an expression — used to
   decide whether a guard condition "mentions" a denominator. *)
let idents_in e =
  let acc = ref [] in
  Syntax.iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident name; _ } -> acc := name :: !acc
      | _ -> ())
    e;
  !acc

(* Run an iterator over a whole file. *)
let run (it : Ast_iterator.iterator) = function
  | Impl str -> it.structure it str
  | Intf sg -> it.signature it sg

(* Apply [f] to every expression of a file, each before its
   subexpressions. *)
let iter_ast f = run (Syntax.every_expr f)

(* ------------------------------------------------------------------ *)
(* Rule: poly-compare                                                  *)
(* Polymorphic comparison on solver data. Flags (a) bare [compare]      *)
(* passed to a sort function, or used anywhere inside its comparator    *)
(* closure; (b) [=] / [<>] / [min] / [max] / [compare] applied to a     *)
(* float literal outside an if/when guard position. Polymorphic         *)
(* compare on floats is NaN-unsound (compare nan x = -1 regardless of   *)
(* x's ordering) and boxes every call.                                  *)

let sort_functions =
  [
    "Array.sort";
    "Array.stable_sort";
    "Stdlib.Array.sort";
    "List.sort";
    "List.stable_sort";
    "List.fast_sort";
    "List.sort_uniq";
    "Stdlib.List.sort";
  ]

let poly_compare_names = [ "compare"; "Stdlib.compare"; "Poly.compare" ]
let poly_op_names = [ "="; "<>"; "min"; "max"; "compare"; "Stdlib.(=)"; "Stdlib.min"; "Stdlib.max" ]

let rule_poly_compare =
  let id = "poly-compare" in
  let check ctx ast =
    let out = ref [] in
    let flag loc msg = out := Diagnostic.make ~file:ctx.path ~loc ~rule:id msg :: !out in
    let guard_depth = ref 0 in
    (* Flag every bare [compare] in a comparator argument subtree. *)
    let scan_comparator =
      Syntax.iter_exprs (fun e ->
          match Syntax.ident_of e with
          | Some n when List.mem n poly_compare_names ->
              flag e.pexp_loc
                "polymorphic compare in a sort comparator; use a monomorphic comparator \
                 (Float.compare / Int.compare / String.compare)"
          | _ -> ())
    in
    let rec expr self e =
      match e.pexp_desc with
      | Pexp_apply (f, args) when (match Syntax.ident_of f with
                                   | Some n -> List.mem n sort_functions
                                   | None -> false) ->
          (match args with
          | (Asttypes.Nolabel, cmp) :: rest ->
              scan_comparator cmp;
              List.iter (fun (_, a) -> expr self a) rest
          | args -> List.iter (fun (_, a) -> expr self a) args)
      | Pexp_apply (f, args)
        when (match Syntax.ident_of f with Some n -> List.mem n poly_op_names | None -> false)
             && List.exists (fun (_, a) -> is_float_const a) args
             && !guard_depth = 0 ->
          let op = Option.value (Syntax.ident_of f) ~default:"?" in
          flag e.pexp_loc
            (Printf.sprintf
               "polymorphic '%s' against a float literal; use Float.equal / Float.compare (or \
                move the test into a guard position)"
               op);
          List.iter (fun (_, a) -> expr self a) args
      | Pexp_ifthenelse (c, t, eo) ->
          incr guard_depth;
          expr self c;
          decr guard_depth;
          expr self t;
          Option.iter (expr self) eo
      | _ -> Ast_iterator.default_iterator.expr self e
    and case self c =
      Option.iter
        (fun g ->
          incr guard_depth;
          expr self g;
          decr guard_depth)
        c.pc_guard;
      self.Ast_iterator.pat self c.pc_lhs;
      expr self c.pc_rhs
    in
    let it = { Ast_iterator.default_iterator with expr; case } in
    run it ast;
    !out
  in
  {
    id;
    doc =
      "no polymorphic compare/=/min/max on float or structured solver data (bare 'compare' in \
       sorts; '=' against float literals outside guards)";
    check;
  }

(* ------------------------------------------------------------------ *)
(* Rule: exception-swallow                                             *)
(* [try ... with _ -> ...] and [with e -> ignore e] hide solver        *)
(* failures: an EPF pass that dies mid-update leaves potentials        *)
(* inconsistent, and a swallowed exception turns that into silent      *)
(* placement corruption.                                               *)

let rule_exception_swallow =
  let id = "exception-swallow" in
  let check ctx ast =
    let out = ref [] in
    let flag loc msg = out := Diagnostic.make ~file:ctx.path ~loc ~rule:id msg :: !out in
    let is_ignore_of v e =
      match e.pexp_desc with
      | Pexp_apply (f, [ (Asttypes.Nolabel, arg) ]) -> (
          Syntax.ident_of f = Some "ignore"
          && match Syntax.ident_of arg with Some n -> n = v | None -> false)
      | _ -> false
    in
    let is_unit e =
      match e.pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident "()"; _ }, None) -> true
      | _ -> false
    in
    iter_ast
      (fun e ->
        match e.pexp_desc with
        | Pexp_try (_, cases) ->
            List.iter
              (fun c ->
                match c.pc_lhs.ppat_desc with
                | Ppat_any ->
                    flag c.pc_lhs.ppat_loc
                      "'with _ ->' swallows every exception (including Out_of_memory and \
                       Stack_overflow); match the specific exceptions you expect"
                | Ppat_var { txt = v; _ } when is_ignore_of v c.pc_rhs || is_unit c.pc_rhs ->
                    flag c.pc_lhs.ppat_loc
                      (Printf.sprintf
                         "'with %s ->' binds the exception only to discard it; match the \
                          specific exceptions you expect"
                         v)
                | _ -> ())
              cases
        | _ -> ())
      ast;
    !out
  in
  { id; doc = "no 'try ... with _ ->' or 'with e -> ignore e' exception swallowing"; check }

(* ------------------------------------------------------------------ *)
(* Rule: hashtbl-find                                                  *)
(* Raw [Hashtbl.find] raises [Not_found] — fine under an enclosing     *)
(* try/match-exception, a latent crash anywhere else. Require          *)
(* [Hashtbl.find_opt].                                                 *)

let rule_hashtbl_find =
  let id = "hashtbl-find" in
  let check ctx ast =
    let out = ref [] in
    let flag loc =
      out :=
        Diagnostic.make ~file:ctx.path ~loc ~rule:id
          "raw Hashtbl.find outside try/match raises Not_found on a miss; use Hashtbl.find_opt"
        :: !out
    in
    let try_depth = ref 0 in
    let has_exception_case cases =
      List.exists
        (fun c -> match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
        cases
    in
    let rec expr self e =
      match e.pexp_desc with
      | Pexp_ident { txt; _ }
        when (let n = Syntax.lid_name txt in
              n = "Hashtbl.find" || n = "Stdlib.Hashtbl.find")
             && !try_depth = 0 ->
          flag e.pexp_loc
      | Pexp_try (body, cases) ->
          incr try_depth;
          expr self body;
          decr try_depth;
          List.iter (fun c -> expr self c.pc_rhs) cases
      | Pexp_match (scrut, cases) when has_exception_case cases ->
          incr try_depth;
          expr self scrut;
          decr try_depth;
          List.iter
            (fun c ->
              Option.iter (expr self) c.pc_guard;
              expr self c.pc_rhs)
            cases
      | _ -> Ast_iterator.default_iterator.expr self e
    in
    run { Ast_iterator.default_iterator with expr } ast;
    !out
  in
  { id; doc = "no raw Hashtbl.find outside an enclosing try/match; use Hashtbl.find_opt"; check }

(* ------------------------------------------------------------------ *)
(* Rule: print-in-lib                                                  *)
(* Library code must report through [Logs]; stdout belongs to the      *)
(* bench/example binaries, and stray printf in a hot solver loop is    *)
(* both a perf and a composability bug.                                *)

let print_names =
  [
    "Printf.printf";
    "Printf.eprintf";
    "print_endline";
    "print_string";
    "print_newline";
    "print_int";
    "print_float";
    "print_char";
    "prerr_endline";
    "Format.printf";
    "Format.eprintf";
    "Stdlib.print_endline";
    "Stdlib.print_string";
  ]

let rule_print_in_lib =
  let id = "print-in-lib" in
  let check ctx ast =
    if not ctx.in_lib then []
    else begin
      let out = ref [] in
      iter_ast
        (fun e ->
          match Syntax.ident_of e with
          | Some n when List.mem n print_names ->
              out :=
                Diagnostic.make ~file:ctx.path ~loc:e.pexp_loc ~rule:id
                  (Printf.sprintf "'%s' in library code; route output through Logs" n)
                :: !out
          | _ -> ())
        ast;
      !out
    end
  in
  { id; doc = "no Printf.printf / print_endline in lib/ (library code logs via Logs)"; check }

(* ------------------------------------------------------------------ *)
(* Rule: no-failwith                                                   *)
(* [failwith] / [assert false] in library code paths abort the whole   *)
(* pipeline with an unstructured error. Use Invalid_argument for       *)
(* precondition violations or a result type; justified unreachable     *)
(* branches take a vodlint-disable with rationale.                     *)

let rule_no_failwith =
  let id = "no-failwith" in
  let check ctx ast =
    if not ctx.in_lib then []
    else begin
      let out = ref [] in
      let flag loc msg = out := Diagnostic.make ~file:ctx.path ~loc ~rule:id msg :: !out in
      iter_ast
        (fun e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ }
            when (let n = Syntax.lid_name txt in n = "failwith" || n = "Stdlib.failwith") ->
              flag e.pexp_loc
                "'failwith' in library code; raise Invalid_argument / a typed exception, or \
                 vodlint-disable with a justification"
          | Pexp_assert
              { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ } ->
              flag e.pexp_loc
                "'assert false' in library code; make the branch impossible by construction \
                 or vodlint-disable with a justification"
          | _ -> ())
        ast;
      !out
    end
  in
  { id; doc = "no failwith / assert false in lib/ without a vodlint-disable justification"; check }

(* ------------------------------------------------------------------ *)
(* Rule: quadratic-loop                                                *)
(* [List.nth] and [@] are O(n); inside a for/while body or a           *)
(* recursive function they turn the per-video UFL fan-out into an      *)
(* O(n^2) blow-up. Use arrays, reversed accumulation, or explicit      *)
(* tail-recursive append.                                              *)

let rule_quadratic_loop =
  let id = "quadratic-loop" in
  let check ctx ast =
    let out = ref [] in
    let flag loc what =
      out :=
        Diagnostic.make ~file:ctx.path ~loc ~rule:id
          (Printf.sprintf
             "'%s' inside a loop or recursive function is O(n) per step (quadratic overall); use \
              an array, reversed accumulation, or List.rev_append"
             what)
        :: !out
    in
    let loop_depth = ref 0 in
    let rec expr self e =
      match e.pexp_desc with
      | Pexp_ident { txt; _ }
        when !loop_depth > 0
             && (let n = Syntax.lid_name txt in
                 n = "List.nth" || n = "@" || n = "List.append" || n = "Stdlib.List.nth") ->
          flag e.pexp_loc (Syntax.lid_name txt)
      | Pexp_for (_, lo, hi, _, body) ->
          expr self lo;
          expr self hi;
          incr loop_depth;
          expr self body;
          decr loop_depth
      | Pexp_while (cond, body) ->
          expr self cond;
          incr loop_depth;
          expr self body;
          decr loop_depth
      | Pexp_let (Asttypes.Recursive, vbs, body) ->
          incr loop_depth;
          List.iter (fun vb -> expr self vb.pvb_expr) vbs;
          decr loop_depth;
          expr self body
      | _ -> Ast_iterator.default_iterator.expr self e
    in
    let structure_item self si =
      match si.pstr_desc with
      | Pstr_value (Asttypes.Recursive, vbs) ->
          incr loop_depth;
          List.iter (fun vb -> expr self vb.pvb_expr) vbs;
          decr loop_depth
      | _ -> Ast_iterator.default_iterator.structure_item self si
    in
    let it = { Ast_iterator.default_iterator with expr; structure_item } in
    run it ast;
    !out
  in
  { id; doc = "no List.nth or '@' inside for/while/recursive-function bodies"; check }

(* ------------------------------------------------------------------ *)
(* Rule: missing-mli                                                   *)
(* Every lib/**/*.ml needs a matching .mli: unstated signatures leak   *)
(* solver internals and make later refactors (sharding, async) churn   *)
(* every caller. Checked against the filesystem, so it only applies    *)
(* when linting real files.                                            *)

let rule_missing_mli =
  let id = "missing-mli" in
  let check ctx ast =
    match ast with
    | Intf _ -> []
    | Impl _ ->
        if ctx.in_lib && ctx.on_disk && not (Sys.file_exists (ctx.path ^ "i")) then
          [
            {
              Diagnostic.file = ctx.path;
              line = 1;
              col = 0;
              rule = id;
              message = "library module has no .mli; add one stating the public interface";
            };
          ]
        else []
  in
  { id; doc = "every lib/**/*.ml has a matching .mli"; check }

(* ------------------------------------------------------------------ *)
(* Rule: unguarded-div                                                 *)
(* Float division in the EPF engine and the simplex kernel where the   *)
(* denominator is a bare identifier that (a) is not named like an      *)
(* epsilon and (b) is not mentioned by any enclosing if-condition or   *)
(* match guard. A zero denominator there silently floods the           *)
(* potential function with infinities.                                 *)

let name_is_epsilon n =
  let contains_sub s sub =
    let ns = String.length s and nb = String.length sub in
    let rec go i = i + nb <= ns && (String.sub s i nb = sub || go (i + 1)) in
    go 0
  in
  contains_sub n "eps" || contains_sub n "tol"

let rule_unguarded_div =
  let id = "unguarded-div" in
  let check ctx ast =
    if not ctx.in_div_scope then []
    else begin
      let out = ref [] in
      let flag loc n =
        out :=
          Diagnostic.make ~file:ctx.path ~loc ~rule:id
            (Printf.sprintf
               "float division by '%s' with no enclosing guard mentioning it; check the \
                denominator (or name it with an eps/tol suffix if it is a constant bound)"
               n)
          :: !out
      in
      let guards : string list list ref = ref [] in
      let guarded n = List.exists (fun g -> List.mem n g) !guards in
      let with_guard g f =
        guards := g :: !guards;
        f ();
        guards := List.tl !guards
      in
      let rec expr self e =
        match e.pexp_desc with
        | Pexp_apply (f, ([ (_, _num); (_, den) ] as args)) when Syntax.ident_of f = Some "/." ->
            (match den.pexp_desc with
            | Pexp_ident { txt = Longident.Lident n; _ }
              when (not (name_is_epsilon n)) && not (guarded n) ->
                flag e.pexp_loc n
            | _ -> ());
            List.iter (fun (_, a) -> expr self a) args
        | Pexp_ifthenelse (c, t, eo) ->
            expr self c;
            with_guard (idents_in c) (fun () ->
                expr self t;
                Option.iter (expr self) eo)
        | Pexp_match (scrut, cases) ->
            expr self scrut;
            with_guard (idents_in scrut) (fun () -> List.iter (case self) cases)
        | _ -> Ast_iterator.default_iterator.expr self e
      and case self c =
        self.Ast_iterator.pat self c.pc_lhs;
        match c.pc_guard with
        | Some g ->
            expr self g;
            with_guard (idents_in g) (fun () -> expr self c.pc_rhs)
        | None -> expr self c.pc_rhs
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr;
          case = (fun self c -> case self c);
        }
      in
      run it ast;
      !out
    end
  in
  {
    id;
    doc =
      "no unguarded '/.' in lib/epf/ and lib/lp/ (denominator must be checked by an enclosing \
       guard or be a named eps/tol bound)";
    check;
  }

(* ------------------------------------------------------------------ *)
(* Rule: domain-spawn                                                  *)
(* All parallelism goes through the pool. A stray [Domain.spawn]       *)
(* elsewhere escapes the pool's determinism contract (ordered merges,  *)
(* task-indexed RNG streams, lowest-index failure) and its exception   *)
(* accounting, so seeded runs stop being reproducible across job       *)
(* counts.                                                             *)

let pool_source = "lib/util/pool.ml"

let path_is_pool path =
  let np = String.length path and ns = String.length pool_source in
  path = pool_source
  || (np > ns
      && String.sub path (np - ns) ns = pool_source
      && path.[np - ns - 1] = '/')

let rule_domain_spawn =
  let id = "domain-spawn" in
  let check ctx ast =
    if path_is_pool ctx.path then []
    else begin
      let out = ref [] in
      iter_ast
        (fun e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ }
            when (let n = Syntax.lid_name txt in
                  n = "Domain.spawn" || n = "Stdlib.Domain.spawn") ->
              out :=
                Diagnostic.make ~file:ctx.path ~loc:e.pexp_loc ~rule:id
                  "'Domain.spawn' outside lib/util/pool.ml bypasses the pool's determinism \
                   and exception contract; submit work through Vod_util.Pool"
                :: !out
          | _ -> ())
        ast;
      !out
    end
  in
  {
    id;
    doc = "no Domain.spawn outside lib/util/pool.ml (all parallelism goes through the pool)";
    check;
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    rule_poly_compare;
    rule_exception_swallow;
    rule_hashtbl_find;
    rule_print_in_lib;
    rule_no_failwith;
    rule_quadratic_loop;
    rule_missing_mli;
    rule_unguarded_div;
    rule_domain_spawn;
  ]

let find id = List.find_opt (fun r -> r.id = id) all
