(* How vodlint reads OCaml syntax (see syntax.mli): names off
   identifiers, the variables a pattern binds, a function's parameters,
   a file's module-level definitions, the fixed name lists the passes
   agree on, and the file and declaration-line readers. Every pass
   calls these, so each reading rule lives in one place. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Names                                                               *)

let lid_name (lid : Longident.t) = String.concat "." (Longident.flatten lid)

let ident_of e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (lid_name txt) | _ -> None

(* Strip the [Stdlib.] prefix and this repo's library wrappers
   ([Vod_util.Pool.map] -> [Pool.map]) so one table serves qualified and
   unqualified references alike. *)
let normalize name =
  match String.index_opt name '.' with
  | None -> name
  | Some i ->
      let head = String.sub name 0 i in
      (* [Stdlib.f] is [f]; a [Vod_*] wrapper is dropped only when a
         module name follows it. *)
      let strip =
        head = "Stdlib"
        || (String.length head > 4
           && String.starts_with ~prefix:"Vod_" head
           && String.contains_from name (i + 1) '.')
      in
      if strip then String.sub name (i + 1) (String.length name - i - 1) else name

let callee_name e = Option.map normalize (ident_of e)

let pipeline name args =
  match (name, args) with
  | "|>", [ (_, x); (_, fn) ] | "@@", [ (_, fn); (_, x) ] -> Some (fn, x)
  | _ -> None

let module_name_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let module_of_key key =
  match String.index_opt key '.' with
  | Some i -> String.sub key 0 i
  | None -> key

let candidates ~current_module name =
  if String.contains name '.' then
    match List.rev (String.split_on_char '.' name) with
    | f :: m :: _ -> [ name; m ^ "." ^ f ]
    | _ -> [ name ]
  else [ current_module ^ "." ^ name ]

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)

let iter_children f e =
  let it = { Ast_iterator.default_iterator with expr = (fun _ ce -> f ce) } in
  Ast_iterator.default_iterator.expr it e

let every_expr f =
  {
    Ast_iterator.default_iterator with
    expr =
      (fun self e ->
        f e;
        Ast_iterator.default_iterator.expr self e);
  }

let iter_exprs f e =
  let it = every_expr f in
  it.expr it e

let iter_structure_exprs f str =
  let it = every_expr f in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Patterns and functions                                              *)

let pat_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it p;
  !acc

let rec simple_var p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (q, _) -> simple_var q
  | _ -> None

let rec params e =
  match e.pexp_desc with
  | Pexp_fun (lbl, default, pat, body) ->
      let ps, b = params body in
      ((lbl, default, pat) :: ps, b)
  | Pexp_newtype (_, body) -> params body
  | Pexp_constraint (body, _)
    when (match body.pexp_desc with
         | Pexp_fun _ | Pexp_function _ -> true
         | _ -> false) ->
      params body
  | _ -> ([], e)

let is_function e =
  match params e with
  | _ :: _, _ -> true
  | [], b -> (match b.pexp_desc with Pexp_function _ -> true | _ -> false)

let rec lambda_interior e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, inner) | Pexp_newtype (_, inner) | Pexp_constraint (inner, _) ->
      lambda_interior inner
  | _ -> e

(* ------------------------------------------------------------------ *)
(* Module-level definitions                                            *)

type def = {
  d_key : string;
  d_path : string;
  d_loc : Location.t;
  d_expr : expression;
}

let qualify prefix n = if prefix = "" then n else prefix ^ "." ^ n

let bindings str =
  let rec items prefix str =
    List.concat_map
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) -> List.map (fun vb -> (prefix, vb)) vbs
        | Pstr_module
            {
              pmb_name = { txt = Some m; _ };
              pmb_expr = { pmod_desc = Pmod_structure sub; _ };
              _;
            } ->
            items (qualify prefix m) sub
        | _ -> [])
      str
  in
  items "" str

let collect_defs files =
  List.concat_map
    (fun (path, str) ->
      let m = module_name_of_path path in
      List.filter_map
        (fun (prefix, vb) ->
          Option.map
            (fun n ->
              {
                d_key = m ^ "." ^ qualify prefix n;
                d_path = path;
                d_loc = vb.pvb_loc;
                d_expr = vb.pvb_expr;
              })
            (simple_var vb.pvb_pat))
        (bindings str))
    files

(* ------------------------------------------------------------------ *)
(* Shared name lists                                                   *)

let pool_entries = [ "Pool.map"; "Pool.mapi"; "Pool.iteri"; "Pool.map_reduce" ]

(* [~combine] of map_reduce runs sequentially in the submitting domain,
   so only [~map] is a task. *)
let pool_task_label = function "Pool.map_reduce" -> "map" | _ -> "f"

let is_pool_impl path =
  Filename.basename path = "pool.ml"
  && Filename.basename (Filename.dirname path) = "util"

let raise_family = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let wallclock_names = [ "Sys.time"; "Unix.gettimeofday"; "Unix.time" ]

(* ------------------------------------------------------------------ *)
(* Files and declaration lines                                         *)

let in_dir dir path =
  String.starts_with ~prefix:dir path
  || String.starts_with ~prefix:("./" ^ dir) path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let decl_words line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")
