(* Units-of-measure dataflow (see units.mli). The analysis is untyped
   and deliberately one-sided: a finding needs BOTH sides of an
   operation to carry a known, non-trivial unit, so unannotated code
   stays silent and annotating more names/declarations only ever adds
   checking. Numeric literals are unit-polymorphic (they adopt the
   other additive operand) but poison [*.]/[/.] to Unknown, so scale
   conversions must go through named constants (seconds_per_hour) to
   keep their unit — magic-number conversions just drop out of the
   analysis instead of firing falsely. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Dimensions                                                          *)

(* A dimension is a sorted (atom, exponent) list with no zero
   exponents; [] is dimensionless. Atoms are the name tokens
   themselves (gb and mb stay distinct — a scale confusion is exactly
   what the rule is for), with the composite rate tokens decomposed so
   gb / (gb/s) cancels to s. *)
type dim = (string * int) list

type u =
  | Unknown  (* no information *)
  | Scalar   (* a numeric literal: unit-polymorphic *)
  | Dim of dim

let dim_norm d =
  List.filter (fun (_, e) -> e <> 0) d
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dim_mul a b =
  let add acc (atom, e) =
    match List.assoc_opt atom acc with
    | Some e0 -> (atom, e0 + e) :: List.remove_assoc atom acc
    | None -> (atom, e) :: acc
  in
  dim_norm (List.fold_left add a b)

let dim_inv d = List.map (fun (a, e) -> (a, -e)) d
let dim_div a b = dim_mul a (dim_inv b)
let dim_equal a b = dim_norm a = dim_norm b

let dim_to_string d =
  match dim_norm d with
  | [] -> "1"
  | d ->
      let part (a, e) =
        if abs e = 1 then a else Printf.sprintf "%s^%d" a (abs e)
      in
      let pos = List.filter (fun (_, e) -> e > 0) d in
      let neg = List.filter (fun (_, e) -> e < 0) d in
      let num =
        match pos with
        | [] -> "1"
        | _ -> String.concat "*" (List.map part pos)
      in
      (match neg with
      | [] -> num
      | _ -> num ^ "/" ^ String.concat "/" (List.map part neg))

(* ------------------------------------------------------------------ *)
(* Naming conventions                                                  *)

let atom_of_token = function
  | "gb" -> Some [ ("gb", 1) ]
  | "mb" -> Some [ ("mb", 1) ]
  | "kb" -> Some [ ("kb", 1) ]
  | "tb" -> Some [ ("tb", 1) ]
  | "bytes" -> Some [ ("bytes", 1) ]
  | "bits" -> Some [ ("bits", 1) ]
  | "gbps" -> Some [ ("gb", 1); ("s", -1) ]
  | "mbps" -> Some [ ("mb", 1); ("s", -1) ]
  | "kbps" -> Some [ ("kb", 1); ("s", -1) ]
  | "s" | "sec" | "secs" | "seconds" -> Some [ ("s", 1) ]
  | "ms" -> Some [ ("ms", 1) ]
  | "day" | "days" -> Some [ ("day", 1) ]
  | "hour" | "hours" -> Some [ ("hour", 1) ]
  | "streams" -> Some [ ("streams", 1) ]
  | "hops" -> Some [ ("hops", 1) ]
  | "req" | "reqs" | "requests" -> Some [ ("req", 1) ]
  | _ -> None

(* Single-token names that are far more often generic metavariables
   than quantities ([s] a string or a record, [sec] a section). Multi-
   token names ([window_s]) are unaffected. *)
let bare_blocklist = [ "s"; "ms"; "sec"; "secs" ]

(* A preposition immediately before the unit suffix means the trailing
   tokens describe a relation, not the value's unit: [between_days]
   selects by day, [of_requests] consumes requests, [sec_in_hour] is
   an offset within an hour. *)
let prepositions =
  [ "between"; "of"; "in"; "at"; "by"; "to"; "from"; "with"; "within";
    "over"; "before"; "after"; "until" ]

(* The unit a name's trailing tokens spell, if any: the longest
   trailing run of unit tokens and [per], read left to right, with
   [per] dividing the next token. [total_gb_hops] is gb*hops,
   [seconds_per_day] is s/day, [requests_per_video_per_day] (video is
   not a unit token) is 1/day. *)
let suffix_unit name =
  let toks = String.split_on_char '_' (String.lowercase_ascii name) in
  match toks with
  | [ t ] when List.mem t bare_blocklist -> None
  | _ -> (
      let rec take acc = function
        | t :: rest when t = "per" || atom_of_token t <> None ->
            take (t :: acc) rest
        | before -> (acc, before)
      in
      let suffix, before = take [] (List.rev toks) in
      let blocked =
        match before with t :: _ -> List.mem t prepositions | [] -> false
      in
      let rec interp acc = function
        | [] -> Some acc
        | "per" :: t :: rest -> (
            match atom_of_token t with
            | Some d -> interp (dim_div acc d) rest
            | None -> None)
        | [ "per" ] -> None
        | t :: rest -> (
            match atom_of_token t with
            | Some d -> interp (dim_mul acc d) rest
            | None -> None)
      in
      match suffix with
      | [] -> None
      | _ when blocked -> None
      | s -> (
          match interp [] s with
          | Some [] | None -> None
          | Some d -> Some d))

(* ------------------------------------------------------------------ *)
(* units.decl parsing                                                  *)

type akey = L of string | P of int

let akey_to_string = function
  | L l -> "~" ^ l
  | P i -> Printf.sprintf "argument %d" (i + 1)

type dentry = { de_params : (akey * dim) list; de_ret : dim option }

type decl = {
  d_entries : (string * dentry) list; (* "Video.size_gb" -> entry *)
  d_modules : string list;            (* modules covered, for boundary *)
}

exception Decl_error of string

let empty_decl = { d_entries = []; d_modules = [] }

let decl_values d = List.map fst d.d_entries

let is_atom_word s =
  s <> ""
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) s

let parse_dim ~lineno s =
  let fail fmt =
    Printf.ksprintf (fun m ->
        raise (Decl_error (Printf.sprintf "units.decl line %d: %s" lineno m)))
      fmt
  in
  if s = "" then fail "empty unit expression";
  let atoms part =
    String.split_on_char '*' part
    |> List.filter (fun a -> a <> "")
    |> List.map (fun a ->
           if a = "1" then []
           else
             match atom_of_token a with
             | Some d -> d
             | None ->
                 if is_atom_word a then [ (a, 1) ]
                 else fail "bad unit atom '%s'" a)
    |> List.fold_left dim_mul []
  in
  match String.split_on_char '/' s with
  | [] -> fail "empty unit expression"
  | num :: dens ->
      List.fold_left (fun acc den -> dim_div acc (atoms den)) (atoms num) dens

let decl_of_string src =
  let entries = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let fail fmt =
        Printf.ksprintf (fun m ->
            raise
              (Decl_error (Printf.sprintf "units.decl line %d: %s" lineno m)))
          fmt
      in
      match Syntax.decl_words line with
      | [] -> ()
      | name :: rest ->
          if not (String.contains name '.') then
            fail "'%s' is not a qualified Module.name" name;
          let de_params = ref [] in
          let de_ret = ref None in
          let rec go = function
            | [] -> ()
            | [ "->" ] -> fail "expected a unit after ->"
            | "->" :: u :: rest ->
                if rest <> [] then fail "tokens after the return unit";
                de_ret := Some (parse_dim ~lineno u)
            | tok :: rest -> (
                match String.index_opt tok '=' with
                | None -> fail "expected name=UNIT or -> UNIT, got '%s'" tok
                | Some j ->
                    let k = String.sub tok 0 j in
                    let v = String.sub tok (j + 1) (String.length tok - j - 1) in
                    if k = "" then fail "empty parameter name in '%s'" tok;
                    let key =
                      if
                        String.length k > 3
                        && String.sub k 0 3 = "arg"
                        &&
                        match
                          int_of_string_opt
                            (String.sub k 3 (String.length k - 3))
                        with
                        | Some n when n >= 1 -> true
                        | _ -> false
                      then
                        P (int_of_string (String.sub k 3 (String.length k - 3)) - 1)
                      else L k
                    in
                    de_params := (key, parse_dim ~lineno v) :: !de_params;
                    go rest)
          in
          go rest;
          entries :=
            (name, { de_params = List.rev !de_params; de_ret = !de_ret })
            :: !entries)
    (String.split_on_char '\n' src);
  let entries = List.rev !entries in
  let modules =
    List.filter_map
      (fun (name, _) ->
        match String.index_opt name '.' with
        | Some i -> Some (String.sub name 0 i)
        | None -> None)
      entries
    |> List.sort_uniq String.compare
  in
  { d_entries = entries; d_modules = modules }

let load_decl path =
  if Sys.file_exists path then decl_of_string (Syntax.read_file path)
  else empty_decl

(* ------------------------------------------------------------------ *)
(* Function summaries                                                  *)

type fentry = {
  u_path : string;
  u_loc : Location.t option;  (* None for decl-only entries *)
  u_params : (akey * u) list;
  mutable u_ret : u;
  u_declared : bool;          (* return unit pinned by units.decl *)
}

(* ------------------------------------------------------------------ *)
(* Unit algebra on the lattice                                         *)

(* Additive join: literals adopt the unit of the other side. *)
let add_join ua ub =
  match (ua, ub) with
  | Dim a, _ -> Dim a
  | _, Dim b -> Dim b
  | Scalar, Scalar -> Scalar
  | _ -> Unknown

(* Multiplication: a literal factor leaves the unit unknowable (a
   conversion constant must be named to carry its unit). *)
let mul_combine ua ub =
  match (ua, ub) with
  | Dim a, Dim b -> Dim (dim_mul a b)
  | Scalar, Scalar -> Scalar
  | _ -> Unknown

let div_combine ua ub =
  match (ua, ub) with
  | Dim a, Dim b -> Dim (dim_div a b)
  | Scalar, Scalar -> Scalar
  | _ -> Unknown

let branch_join ua ub =
  match (ua, ub) with
  | Dim a, Dim b -> if dim_equal a b then Dim a else Unknown
  | (Dim _ as d), _ | _, (Dim _ as d) -> d
  | Scalar, Scalar -> Scalar
  | _ -> Unknown

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)

type ctx = {
  emit : bool;
  path : string;
  current_module : string;
  table : (string, fentry) Hashtbl.t;
  decl : decl;
  mutable diags : Diagnostic.t list;
  boundary : (string * akey, string * Location.t) Hashtbl.t;
  check_mismatch : bool;
  check_boundary : bool;
}

let mismatch ctx ~loc msg =
  if ctx.emit && ctx.check_mismatch then
    ctx.diags <-
      Diagnostic.make ~file:ctx.path ~loc ~rule:"unit-mismatch" msg :: ctx.diags

let check_same ctx ~loc ~op ua ub =
  match (ua, ub) with
  | Dim a, Dim b when not (dim_equal a b) ->
      mismatch ctx ~loc
        (Printf.sprintf "operands of %s have different units: %s vs %s" op
           (dim_to_string a) (dim_to_string b))
  | _ -> ()

let resolve ctx name =
  Syntax.candidates ~current_module:ctx.current_module (Syntax.normalize name)
  |> List.find_map (fun k ->
         Option.map (fun fe -> (k, fe)) (Hashtbl.find_opt ctx.table k))

let last_component name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* Return-unit fallback for calls that resolve nowhere: the callee's
   own name suffix ([Tr.seconds_per_day] through a module alias). *)
let ret_fallback name =
  match suffix_unit (last_component name) with
  | Some d -> Dim d
  | None -> Unknown

(* Pair each parameter or argument with its key; positional ones are
   numbered among the unlabelled only. *)
let keyed label xs =
  let nolabel = ref 0 in
  List.map
    (fun x ->
      match label x with
      | Asttypes.Nolabel ->
          let i = !nolabel in
          incr nolabel;
          (P i, x)
      | Asttypes.Labelled l | Asttypes.Optional l -> (L l, x))
    xs

let param_label (lbl, _default, _pat) = lbl

(* A parameter's seeded unit: units.decl first, then the label's
   suffix, then the pattern variable's suffix. *)
let param_unit ~dentry key ~pat =
  let from_decl =
    match dentry with
    | Some de -> Option.map (fun d -> Dim d) (List.assoc_opt key de.de_params)
    | None -> None
  in
  match from_decl with
  | Some u -> u
  | None -> (
      let by_name n =
        match suffix_unit n with Some d -> Some (Dim d) | None -> None
      in
      let from_label = match key with L l -> by_name l | P _ -> None in
      match from_label with
      | Some u -> u
      | None -> (
          match Option.bind (Syntax.simple_var pat) by_name with
          | Some u -> u
          | None -> Unknown))

let bind_params ~dentry env ps =
  List.fold_left
    (fun env (key, (_, _, pat)) ->
      let u = param_unit ~dentry key ~pat in
      match Syntax.simple_var pat with
      | Some n -> (n, u) :: env
      | None -> List.rev_append (List.map (fun n -> (n, Unknown)) (Syntax.pat_vars pat)) env)
    env (keyed param_label ps)

let rec infer ctx env e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_float _) -> Scalar
  | Pexp_constant _ -> Unknown
  | Pexp_ident { txt = Longident.Lident n; _ } -> (
      match List.assoc_opt n env with
      | Some u -> u
      | None -> (
          match resolve ctx n with
          | Some (_, fe) when fe.u_params = [] -> fe.u_ret
          | Some _ -> Unknown
          | None -> Unknown))
  | Pexp_ident { txt; _ } -> (
      let name = Syntax.lid_name txt in
      match resolve ctx name with
      | Some (_, fe) when fe.u_params = [] -> fe.u_ret
      | Some _ -> Unknown
      | None -> ret_fallback name)
  | Pexp_apply (f, args) -> infer_apply ctx env e f args
  | Pexp_let (rf, vbs, body) ->
      let env' = infer_let ctx env rf vbs in
      infer ctx env' body
  | Pexp_fun _ | Pexp_newtype _ ->
      scan_lambda ctx env e;
      Unknown
  | Pexp_function cases ->
      List.iter
        (fun c ->
          let env' =
            List.rev_append
              (List.map (fun n -> (n, Unknown)) (Syntax.pat_vars c.pc_lhs))
              env
          in
          Option.iter (fun g -> ignore (infer ctx env' g)) c.pc_guard;
          ignore (infer ctx env' c.pc_rhs))
        cases;
      Unknown
  | Pexp_match (scrut, cases) ->
      let us = infer ctx env scrut in
      List.fold_left
        (fun acc c ->
          let root =
            match c.pc_lhs.ppat_desc with
            | Ppat_var _ | Ppat_alias _ -> us
            | _ -> Unknown
          in
          let env' =
            List.rev_append
              (List.map (fun n -> (n, root)) (Syntax.pat_vars c.pc_lhs))
              env
          in
          Option.iter (fun g -> ignore (infer ctx env' g)) c.pc_guard;
          let uc = infer ctx env' c.pc_rhs in
          branch_join acc uc)
        Scalar cases
  | Pexp_try (body, cases) ->
      let ub = infer ctx env body in
      List.fold_left
        (fun acc c ->
          let env' =
            List.rev_append
              (List.map (fun n -> (n, Unknown)) (Syntax.pat_vars c.pc_lhs))
              env
          in
          Option.iter (fun g -> ignore (infer ctx env' g)) c.pc_guard;
          branch_join acc (infer ctx env' c.pc_rhs))
        ub cases
  | Pexp_ifthenelse (c, t, eo) -> (
      ignore (infer ctx env c);
      let ut = infer ctx env t in
      match eo with
      | Some e2 -> branch_join ut (infer ctx env e2)
      | None -> Unknown)
  | Pexp_sequence (a, b) ->
      ignore (infer ctx env a);
      infer ctx env b
  | Pexp_field (b, { txt; _ }) -> (
      ignore (infer ctx env b);
      match suffix_unit (Longident.last txt) with
      | Some d -> Dim d
      | None -> Unknown)
  | Pexp_setfield (b, { txt; _ }, v) ->
      ignore (infer ctx env b);
      let uv = infer ctx env v in
      let fname = Longident.last txt in
      (match (suffix_unit fname, uv) with
      | Some ed, Dim ad when not (dim_equal ed ad) ->
          mismatch ctx ~loc:e.pexp_loc
            (Printf.sprintf "field %s (unit %s) is assigned a value of unit %s"
               fname (dim_to_string ed) (dim_to_string ad))
      | _ -> ());
      Unknown
  | Pexp_record (fields, base) ->
      Option.iter (fun b -> ignore (infer ctx env b)) base;
      List.iter
        (fun (({ txt; _ } : Longident.t Location.loc), fv) ->
          let uv = infer ctx env fv in
          let fname = Longident.last txt in
          match (suffix_unit fname, uv) with
          | Some ed, Dim ad when not (dim_equal ed ad) ->
              mismatch ctx ~loc:fv.pexp_loc
                (Printf.sprintf
                   "field %s (unit %s) is initialized with a value of unit %s"
                   fname (dim_to_string ed) (dim_to_string ad))
          | _ -> ())
        fields;
      Unknown
  | Pexp_constraint (b, _) | Pexp_coerce (b, _, _) -> infer ctx env b
  | Pexp_open (_, b) | Pexp_letmodule (_, _, b) | Pexp_letexception (_, b) ->
      infer ctx env b
  | Pexp_tuple es | Pexp_array es ->
      List.iter (fun x -> ignore (infer ctx env x)) es;
      Unknown
  | Pexp_construct (_, arg) ->
      Option.iter (fun a -> ignore (infer ctx env a)) arg;
      Unknown
  | Pexp_variant (_, arg) ->
      Option.iter (fun a -> ignore (infer ctx env a)) arg;
      Unknown
  | Pexp_for (pat, lo, hi, _, body) ->
      let ulo = infer ctx env lo in
      let uhi = infer ctx env hi in
      let env' =
        List.rev_append
          (List.map (fun n -> (n, branch_join ulo uhi)) (Syntax.pat_vars pat))
          env
      in
      ignore (infer ctx env' body);
      Unknown
  | Pexp_while (c, body) ->
      ignore (infer ctx env c);
      ignore (infer ctx env body);
      Unknown
  | Pexp_lazy b | Pexp_assert b ->
      ignore (infer ctx env b);
      Unknown
  | _ ->
      Syntax.iter_children (fun ce -> ignore (infer ctx env ce)) e;
      Unknown

and infer_let ctx env rf vbs =
  let env0 =
    match rf with
    | Asttypes.Nonrecursive -> env
    | Asttypes.Recursive ->
        List.rev_append
          (List.concat_map
             (fun vb -> List.map (fun n -> (n, Unknown)) (Syntax.pat_vars vb.pvb_pat))
             vbs)
          env
  in
  List.fold_left
    (fun env' vb ->
      match Syntax.simple_var vb.pvb_pat with
      | Some txt when Syntax.is_function vb.pvb_expr ->
          (* Local function: walk its body for findings; its calls are
             not resolved (it shadows any module-level namesake). *)
          scan_lambda ctx env0 vb.pvb_expr;
          (txt, Unknown) :: env'
      | Some txt ->
          let ue = infer ctx env0 vb.pvb_expr in
          let expected = suffix_unit txt in
          (match (expected, ue) with
          | Some ed, Dim ad when not (dim_equal ed ad) ->
              mismatch ctx ~loc:vb.pvb_loc
                (Printf.sprintf
                   "%s (unit %s by name) is bound to a value of unit %s" txt
                   (dim_to_string ed) (dim_to_string ad))
          | _ -> ());
          let u = match expected with Some d -> Dim d | None -> ue in
          (txt, u) :: env'
      | None ->
          ignore (infer ctx env0 vb.pvb_expr);
          List.rev_append
            (List.map (fun n -> (n, Unknown)) (Syntax.pat_vars vb.pvb_pat))
            env')
    env0 vbs

and scan_lambda ctx env le =
  match le.pexp_desc with
  | Pexp_function _ -> ignore (infer ctx env le)
  | _ ->
      let ps, body = Syntax.params le in
      List.iter
        (fun (_, default, _) ->
          Option.iter (fun d -> ignore (infer ctx env d)) default)
        ps;
      let env' = bind_params ~dentry:None env ps in
      ignore (infer ctx env' body)

and infer_apply ctx env e f args =
  match Syntax.ident_of f with
  | None ->
      ignore (infer ctx env f);
      List.iter (fun (_, a) -> ignore (infer ctx env a)) args;
      Unknown
  | Some raw -> (
      match Syntax.pipeline (Syntax.normalize raw) args with
      | Some ({ pexp_desc = Pexp_ident { txt; _ }; _ }, x) ->
          infer_call ctx env e (Syntax.lid_name txt) [ (Asttypes.Nolabel, x) ]
      | _ -> infer_call ctx env e raw args)

and infer_call ctx env e raw args =
  let name = Syntax.normalize raw in
  let walk_all () = List.iter (fun (_, a) -> ignore (infer ctx env a)) args in
  let arith2 ~check combine =
    match args with
    | [ (_, a); (_, b) ] ->
        let ua = infer ctx env a in
        let ub = infer ctx env b in
        if check then check_same ctx ~loc:e.pexp_loc ~op:name ua ub;
        combine ua ub
    | _ ->
        walk_all ();
        Unknown
  in
  match name with
  | "+." | "-." | "+" | "-" | "mod" | "Float.rem" -> arith2 ~check:true add_join
  | "min" | "max" | "Float.min" | "Float.max" -> arith2 ~check:true add_join
  | "*." | "*" -> arith2 ~check:false mul_combine
  | "/." | "/" -> arith2 ~check:false div_combine
  | "<" | "<=" | ">" | ">=" | "=" | "<>" | "==" | "!=" | "compare"
  | "Float.compare" | "Float.equal" ->
      ignore (arith2 ~check:true (fun _ _ -> Unknown));
      Unknown
  | "~-." | "~-" | "~+." | "~+" | "abs_float" | "Float.abs" | "float_of_int"
  | "int_of_float" | "Float.of_int" | "Float.to_int" | "truncate" | "ceil"
  | "floor" | "Float.round" | "Float.trunc" | "succ" | "pred" | "ignore" -> (
      match args with
      | [ (_, a) ] -> ( match name with "ignore" -> ignore (infer ctx env a); Unknown | _ -> infer ctx env a)
      | _ ->
          walk_all ();
          Unknown)
  | "Array.get" | "Array.unsafe_get" -> (
      match args with
      | (_, a) :: rest ->
          let u = infer ctx env a in
          List.iter (fun (_, x) -> ignore (infer ctx env x)) rest;
          u
      | [] -> Unknown)
  | "Array.make" -> (
      match args with
      | [ (_, n); (_, x) ] ->
          ignore (infer ctx env n);
          infer ctx env x
      | _ ->
          walk_all ();
          Unknown)
  | _ -> general_call ctx env name args

and general_call ctx env name args =
  let resolved =
    if (not (String.contains name '.')) && List.mem_assoc name env then None
    else resolve ctx name
  in
  List.iter
    (fun (akey, (_, a)) ->
      let ua = infer ctx env a in
      let declared =
        match resolved with
        | Some (_, fe) -> List.assoc_opt akey fe.u_params
        | None -> None
      in
      let expected =
        match declared with
        | Some (Dim _ as u) -> Some u
        | _ -> (
            match akey with
            | L l -> (
                match suffix_unit l with Some d -> Some (Dim d) | None -> None)
            | P _ -> None)
      in
      match (expected, ua) with
      | Some (Dim ed), Dim ad when not (dim_equal ed ad) ->
          if ctx.emit && ctx.check_mismatch then
            ctx.diags <-
              Diagnostic.make ~file:ctx.path ~loc:a.pexp_loc
                ~rule:"unit-mismatch"
                (Printf.sprintf "%s of %s expects unit %s, got %s"
                   (akey_to_string akey) name (dim_to_string ed)
                   (dim_to_string ad))
              :: ctx.diags
      | None, Dim ad when ad <> [] -> (
          (* A unit-carrying value crosses into an unannotated
             parameter: report only for declared core modules, once
             per (function, parameter), at the definition. *)
          match resolved with
          | Some (key, fe)
            when ctx.emit && ctx.check_boundary
                 && List.mem (Syntax.module_of_key key) ctx.decl.d_modules
                 && List.mem_assoc akey fe.u_params -> (
              match fe.u_loc with
              | Some loc ->
                  if not (Hashtbl.mem ctx.boundary (key, akey)) then
                    Hashtbl.replace ctx.boundary (key, akey) (fe.u_path, loc)
              | None -> ())
          | _ -> ())
      | _ -> ())
    (keyed fst args);
  match resolved with
  | Some (_, fe) -> ( match fe.u_ret with Dim d -> Dim d | _ -> ret_fallback name)
  | None -> ret_fallback name

(* ------------------------------------------------------------------ *)
(* Definitions and the driver                                          *)

let seed_table decl defs =
  let table = Hashtbl.create 256 in
  List.iter
    (fun (d : Syntax.def) ->
      if not (Hashtbl.mem table d.d_key) then begin
        let dentry = List.assoc_opt d.d_key decl.d_entries in
        let u_params =
          List.map
            (fun (key, (_, _, pat)) -> (key, param_unit ~dentry key ~pat))
            (keyed param_label (fst (Syntax.params d.d_expr)))
        in
        let decl_ret =
          Option.bind dentry (fun de -> Option.map (fun r -> Dim r) de.de_ret)
        in
        let u_ret =
          match decl_ret with
          | Some u -> u
          | None -> (
              match suffix_unit (last_component d.d_key) with
              | Some dd -> Dim dd
              | None -> Unknown)
        in
        Hashtbl.add table d.d_key
          {
            u_path = d.d_path;
            u_loc = Some d.d_loc;
            u_params;
            u_ret;
            u_declared = decl_ret <> None;
          }
      end)
    defs;
  (* Declarations with no definition in the scanned set still check
     call sites (param units and return unit). *)
  List.iter
    (fun (key, de) ->
      if not (Hashtbl.mem table key) then
        Hashtbl.add table key
          {
            u_path = "";
            u_loc = None;
            u_params = List.map (fun (k, dd) -> (k, Dim dd)) de.de_params;
            u_ret =
              (match de.de_ret with Some dd -> Dim dd | None -> Unknown);
            u_declared = de.de_ret <> None;
          })
    decl.d_entries;
  table

let ctx_for ~emit ~decl ~table ~check_mismatch ~check_boundary ~boundary
    (d : Syntax.def) =
  {
    emit;
    path = d.d_path;
    current_module = Syntax.module_of_key d.d_key;
    table;
    decl;
    diags = [];
    boundary;
    check_mismatch;
    check_boundary;
  }

let infer_def ctx (d : Syntax.def) =
  let dentry = List.assoc_opt d.d_key ctx.decl.d_entries in
  let ps, body = Syntax.params d.d_expr in
  List.iter
    (fun (_, default, _) ->
      Option.iter (fun de -> ignore (infer ctx [] de)) default)
    ps;
  infer ctx (bind_params ~dentry [] ps) body

let run ~decl ~mismatch:check_mismatch ~boundary:check_boundary files =
  let defs = Syntax.collect_defs files in
  let table = seed_table decl defs in
  (* Only the first definition of a key owns the table entry; shadowed
     duplicates (same module name in two directories) are walked for
     local findings but never feed the summary. *)
  let owns (d : Syntax.def) =
    match Hashtbl.find_opt table d.d_key with
    | Some fe -> fe.u_loc = Some d.d_loc && fe.u_path = d.d_path
    | None -> false
  in
  let boundary = Hashtbl.create 32 in
  (* Monotone fixpoint on return units: Unknown entries may become Dim
     as callee returns become known; nothing ever changes once Dim. *)
  let sweep () =
    let changed = ref false in
    List.iter
      (fun (d : Syntax.def) ->
        match Hashtbl.find_opt table d.d_key with
        | Some fe when owns d -> (
            let ctx =
              ctx_for ~emit:false ~decl ~table ~check_mismatch ~check_boundary
                ~boundary d
            in
            match (fe.u_declared, fe.u_ret, infer_def ctx d) with
            | false, Unknown, Dim dd when dd <> [] ->
                fe.u_ret <- Dim dd;
                changed := true
            | _ -> ())
        | _ -> ())
      defs;
    !changed
  in
  let max_sweeps = 8 in
  let rec go n = if n < max_sweeps && sweep () then go (n + 1) in
  go 0;
  (* Emission pass. *)
  let diags = ref [] in
  List.iter
    (fun (d : Syntax.def) ->
      let ctx =
        ctx_for ~emit:true ~decl ~table ~check_mismatch ~check_boundary
          ~boundary d
      in
      let u = infer_def ctx d in
      (match Hashtbl.find_opt table d.d_key with
      | Some fe when owns d -> (
          match (fe.u_ret, u) with
          | Dim rd, Dim bd
            when (not (dim_equal rd bd))
                 && (fe.u_declared
                    || suffix_unit (last_component d.d_key) <> None) ->
              ctx.diags <-
                Diagnostic.make ~file:d.d_path ~loc:d.d_loc
                  ~rule:"unit-mismatch"
                  (Printf.sprintf "%s returns unit %s but its %s says %s"
                     d.d_key (dim_to_string bd)
                     (if fe.u_declared then "units.decl entry" else "name")
                     (dim_to_string rd))
                :: ctx.diags
          | _ -> ())
      | _ -> ());
      diags := List.rev_append ctx.diags !diags)
    defs;
  let boundary_diags =
    Hashtbl.fold
      (fun (key, akey) (path, loc) acc ->
        Diagnostic.make ~file:path ~loc ~rule:"unit-unannotated-boundary"
          (Printf.sprintf
             "%s of %s receives unit-carrying arguments but has no declared \
              unit; add a units.decl entry or a unit-suffix name"
             (akey_to_string akey) key)
        :: acc)
      boundary []
  in
  List.rev_append boundary_diags !diags
