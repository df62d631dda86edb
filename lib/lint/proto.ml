(* Protocol / typestate dataflow over the [Cfg] graphs: tracks declared
   acquire/release pairs ([protocols.decl]) through branches, matches,
   loops, early returns and raise paths, and reports [proto-leak],
   [proto-double-release] and [missing-protect]. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)

type protocol = {
  p_name : string;
  p_acquire : string list;
  p_release : string list;
  p_handoff : string list;
  p_bracket : string list;
}

type decl = protocol list

exception Decl_error of string

let empty_decl : decl = []

let decl_of_string text =
  let fail line msg =
    raise (Decl_error (Printf.sprintf "protocols.decl line %d: %s" line msg))
  in
  let parse_line lineno acc line =
    match Syntax.decl_words line with
    | [] -> acc
    | name :: fields ->
        if String.contains name '=' then
          fail lineno "expected a protocol name before the key=value fields";
        if List.exists (fun p -> p.p_name = name) acc then
          fail lineno (Printf.sprintf "duplicate protocol %S" name);
        let p =
          ref
            {
              p_name = name;
              p_acquire = [];
              p_release = [];
              p_handoff = [];
              p_bracket = [];
            }
        in
        List.iter
          (fun field ->
            match String.index_opt field '=' with
            | None ->
                fail lineno
                  (Printf.sprintf "expected key=value, got %S" field)
            | Some i ->
                let key = String.sub field 0 i in
                let value =
                  String.sub field (i + 1) (String.length field - i - 1)
                in
                let fns =
                  String.split_on_char ',' value
                  |> List.filter (fun f -> f <> "")
                in
                if fns = [] then
                  fail lineno (Printf.sprintf "empty value for %S" key);
                (match key with
                | "acquire" -> p := { !p with p_acquire = !p.p_acquire @ fns }
                | "release" -> p := { !p with p_release = !p.p_release @ fns }
                | "handoff" -> p := { !p with p_handoff = !p.p_handoff @ fns }
                | "bracket" -> p := { !p with p_bracket = !p.p_bracket @ fns }
                | _ ->
                    fail lineno
                      (Printf.sprintf
                         "unknown key %S (expected acquire/release/handoff/bracket)"
                         key)))
          fields;
        if !p.p_acquire = [] then
          fail lineno (Printf.sprintf "protocol %S has no acquire=" name);
        if !p.p_release = [] then
          fail lineno (Printf.sprintf "protocol %S has no release=" name);
        acc @ [ !p ]
  in
  let lines = String.split_on_char '\n' text in
  List.fold_left
    (fun (lineno, acc) line -> (lineno + 1, parse_line lineno acc line))
    (1, []) lines
  |> snd

let load_decl path =
  if Sys.file_exists path then decl_of_string (Syntax.read_file path)
  else empty_decl

let decl_values (d : decl) =
  List.concat_map
    (fun p -> p.p_acquire @ p.p_release @ p.p_handoff @ p.p_bracket)
    d

(* ------------------------------------------------------------------ *)
(* Name matching                                                       *)

(* Does callee [raw] (normalized) refer to one of the declared [fns],
   as seen from [current_module]? It matches as written (stdlib
   [open_out]) or under any of its lookup {!Syntax.candidates}. *)
let match_fn ~current_module raw fns =
  List.exists (fun c -> List.mem c fns) (raw :: Syntax.candidates ~current_module raw)

(* ------------------------------------------------------------------ *)
(* Collecting the functions to analyze                                 *)

(* A lambda under any number of type constraints. Unlike
   [Syntax.is_function], a locally abstract type counts over any body. *)
let rec is_lambda e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | Pexp_constraint (inner, _) -> is_lambda inner
  | _ -> false

(* Top-level (and nested-module) [let f = fun ...] bodies. Module-level
   constants are deliberately skipped: a resource bound at module scope
   lives for the program and has no release path to check. Unlike
   [Syntax.collect_defs], anonymous modules are entered and no module
   prefix is kept. *)
let function_bodies str =
  let acc = ref [] in
  let rec items str =
    List.iter
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var _ when is_lambda vb.pvb_expr ->
                    acc := vb.pvb_expr :: !acc
                | _ -> ())
              vbs
        | Pstr_module
            { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
            items sub
        | _ -> ())
      str
  in
  items str;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Expression scans                                                    *)

(* Local-variable mentions of [e], not descending into lambdas (closure
   capture is the escape scan's concern, aliasing through a closure is
   not an alias). *)
let mentions_any vars e =
  if vars = [] then false
  else begin
    let found = ref false in
    let rec scan e =
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident v; _ } ->
          if List.mem v vars then found := true
      | Pexp_fun _ | Pexp_function _ -> ()
      | _ -> Syntax.iter_children scan e
    in
    scan e;
    !found
  end

(* Conservative raise scan for one atomic statement: syntactic raisers
   ([raise]/[failwith]/[invalid_arg]/[assert]) plus any call whose
   closed summary carries [Effects.Raises]. Lambdas are skipped — the
   CFG already inlined the ones that run here, so descending into the
   residual full-application expression would double-count. A nested
   [try] is assumed to catch whatever its body throws. *)
let stmt_raises ~summaries ~current_module e =
  let rec raises e =
    match e.pexp_desc with
    | Pexp_assert _ -> true
    | Pexp_fun _ | Pexp_function _ -> false
    | Pexp_try _ -> false
    | Pexp_apply (f, args) ->
        (match Syntax.callee_name f with
        | Some n when List.mem n Syntax.raise_family -> true
        | Some n when Summaries.may_raise summaries ~current_module n -> true
        | _ -> false)
        || List.exists (fun (_, a) -> raises a) args
        || (match f.pexp_desc with Pexp_ident _ -> false | _ -> raises f)
    | _ ->
        let found = ref false in
        Syntax.iter_children (fun ce -> if raises ce then found := true) e;
        !found
  in
  raises e

(* ------------------------------------------------------------------ *)
(* Per-function analysis                                               *)

type site = {
  sk_proto : protocol;
  sk_fn : string;  (* the acquire callee as written, for messages *)
  sk_loc : Location.t;
  mutable sk_vars : string list;
  mutable sk_escaped : bool;
}

type ev = Acquire of int | Release of int * Location.t | Handoff of int

type sinfo = { si_events : ev list; si_raises : bool }

(* Lattice per site: bit 0 = may be held, bit 1 = may be released. *)
let held = 1
let released = 2

let analyze_fn ~decl ~summaries ~current_module ~path body =
  let cfg = Cfg.build body in
  let n = Cfg.n_nodes cfg in
  let all_stmts =
    List.concat (List.init n (fun i -> Cfg.stmts cfg i))
  in
  (* -- acquire sites (statement roots only), deduped by location: the
     Fun.protect finally body is built twice. *)
  let sites = ref [] in
  let dropped = ref [] in
  let root_acquire e =
    match e.pexp_desc with
    | Pexp_apply (f, _) -> (
        match Syntax.callee_name f with
        | Some raw ->
            List.find_opt
              (fun p -> match_fn ~current_module raw p.p_acquire)
              decl
            |> Option.map (fun p -> (p, raw))
        | None -> None)
    | _ -> None
  in
  let seen_site p loc =
    List.exists
      (fun s -> s.sk_proto.p_name = p.p_name && s.sk_loc = loc)
      !sites
    || List.exists
         (fun s -> s.sk_proto.p_name = p.p_name && s.sk_loc = loc)
         !dropped
  in
  (* An unbound acquire in tail position is the function's value — the
     obligation transfers to the caller, the opposite of a discard. Tail
     position: last statement of a node from which some path reaches the
     exit through statement-free nodes. *)
  let tail_to_exit node =
    let rec go visited node =
      node = Cfg.exit_node cfg
      || (not (List.mem node visited))
         && Cfg.stmts cfg node = []
         && List.exists (go (node :: visited)) (Cfg.succs cfg node)
    in
    List.exists (go [ node ]) (Cfg.succs cfg node)
  in
  for node = 0 to n - 1 do
    let stmts = Cfg.stmts cfg node in
    let last = List.length stmts - 1 in
    List.iteri
      (fun i stmt ->
        let pat, e =
          match stmt with
          | Cfg.Bind (p, e) -> (Some p, e)
          | Cfg.Eval e -> (None, e)
        in
        match root_acquire e with
        | None -> ()
        | Some (p, raw) ->
            if not (seen_site p e.pexp_loc) then begin
              let vars =
                match pat with Some p -> Syntax.pat_vars p | None -> []
              in
              let returned =
                pat = None && i = last && tail_to_exit node
              in
              let s =
                {
                  sk_proto = p;
                  sk_fn = raw;
                  sk_loc = e.pexp_loc;
                  sk_vars = vars;
                  sk_escaped = false;
                }
              in
              if vars = [] then begin
                if not returned then dropped := s :: !dropped
              end
              else sites := s :: !sites
            end)
      stmts
  done;
  let sites = Array.of_list (List.rev !sites) in
  let nsites = Array.length sites in
  (* -- alias closure: [let x = ...token...] extends the token set. A
     match-case entry is a Bind of the case pattern over the scrutinee,
     so case aliases flow through the same rule. *)
  let grew = ref true in
  while !grew do
    grew := false;
    List.iter
      (fun stmt ->
        match stmt with
        | Cfg.Bind (p, e) ->
            Array.iter
              (fun s ->
                if mentions_any s.sk_vars e then
                  List.iter
                    (fun v ->
                      if not (List.mem v s.sk_vars) then begin
                        s.sk_vars <- v :: s.sk_vars;
                        grew := true
                      end)
                    (Syntax.pat_vars p))
              sites
        | Cfg.Eval _ -> ())
      all_stmts
  done;
  (* -- escape scan: a token stored in a data structure, returned, or
     captured by a closure the CFG could not inline moves ownership out
     of this function; every report for the site is silenced. *)
  let escape_var v =
    Array.iter
      (fun s -> if List.mem v s.sk_vars then s.sk_escaped <- true)
      sites
  in
  let opaque_lambda =
    (* every local ident inside counts as captured *)
    Syntax.iter_exprs (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt = Longident.Lident v; _ } -> escape_var v
        | _ -> ())
  in
  let rec esc ~storing e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident v; _ } ->
        if storing then escape_var v
    | Pexp_ident _ -> ()
    | Pexp_fun _ | Pexp_function _ -> opaque_lambda e
    | Pexp_apply (f, args) ->
        let borrowing =
          match Syntax.callee_name f with
          | Some n -> Cfg.borrows_closures n
          | None -> false
        in
        let storing_args =
          match Syntax.callee_name f with
          | Some ("ref" | ":=") -> true
          | _ -> false
        in
        (match f.pexp_desc with
        | Pexp_ident _ -> ()
        | _ -> esc ~storing:false f);
        List.iter
          (fun (_, a) ->
            match a.pexp_desc with
            | Pexp_fun _ | Pexp_function _ ->
                if borrowing then
                  esc ~storing:false (Syntax.lambda_interior a)
                else opaque_lambda a
            | _ -> esc ~storing:storing_args a)
          args
    | Pexp_tuple es | Pexp_array es -> List.iter (esc ~storing:true) es
    | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) ->
        esc ~storing:true a
    | Pexp_record (fields, base) ->
        List.iter (fun (_, v) -> esc ~storing:true v) fields;
        Option.iter (esc ~storing:true) base
    | Pexp_setfield (o, _, v) ->
        esc ~storing:false o;
        esc ~storing:true v
    | Pexp_field (o, _) -> esc ~storing o
    | Pexp_constraint (inner, _) -> esc ~storing inner
    | _ -> Syntax.iter_children (esc ~storing) e
  in
  List.iter
    (fun stmt ->
      match stmt with
      | Cfg.Eval { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ }
        ->
          (* a bare token as a statement is the function's value:
             ownership returns to the caller *)
          escape_var v
      | Cfg.Eval e -> esc ~storing:false e
      | Cfg.Bind (_, e) -> esc ~storing:false e)
    all_stmts;
  (* -- per-statement transfer info *)
  let events_of e =
    let acc = ref [] in
    let rec scan e =
      match e.pexp_desc with
      | Pexp_fun _ | Pexp_function _ -> ()
      | Pexp_apply (f, args) ->
          List.iter (fun (_, a) -> scan a) args;
          (match f.pexp_desc with Pexp_ident _ -> () | _ -> scan f);
          (match Syntax.callee_name f with
          | None -> ()
          | Some raw ->
              Array.iteri
                (fun k s ->
                  let p = s.sk_proto in
                  let arg_mentions =
                    List.exists (fun (_, a) -> mentions_any s.sk_vars a) args
                  in
                  if arg_mentions then
                    if match_fn ~current_module raw p.p_release then
                      acc := Release (k, e.pexp_loc) :: !acc
                    else if match_fn ~current_module raw p.p_handoff then
                      acc := Handoff k :: !acc)
                sites)
      | _ -> Syntax.iter_children scan e
    in
    scan e;
    List.rev !acc
  in
  let info_of stmt =
    let e = match stmt with Cfg.Bind (_, e) | Cfg.Eval e -> e in
    let acq =
      match root_acquire e with
      | Some (p, _) ->
          Array.to_list sites
          |> List.mapi (fun k s -> (k, s))
          |> List.find_opt (fun (_, s) ->
                 s.sk_proto.p_name = p.p_name && s.sk_loc = e.pexp_loc)
          |> Option.map (fun (k, _) -> Acquire k)
          |> Option.to_list
      | None -> []
    in
    {
      si_events = acq @ events_of e;
      si_raises = stmt_raises ~summaries ~current_module e;
    }
  in
  let infos =
    Array.init n (fun i -> List.map info_of (Cfg.stmts cfg i))
  in
  (* -- forward dataflow to fixpoint *)
  let states = Array.make_matrix n nsites 0 in
  let reached = Array.make n false in
  reached.(Cfg.entry cfg) <- true;
  let apply s = function
    | Acquire k -> s.(k) <- held
    | Release (k, _) | Handoff k -> s.(k) <- released
  in
  let is_acquire = function Acquire _ -> true | _ -> false in
  let changed = ref true in
  while !changed do
    changed := false;
    for node = 0 to n - 1 do
      if reached.(node) then begin
        let s = Array.copy states.(node) in
        let h = Cfg.handler cfg node in
        List.iter
          (fun info ->
            (* An obligation counts as discharged once its release is
               *attempted*, so a statement's releases apply before its
               raise state flows to the handler (close_out raising on
               flush is not a leak); acquires apply after (a throwing
               create never returned a token). *)
            List.iter
              (fun ev -> if not (is_acquire ev) then apply s ev)
              info.si_events;
            if info.si_raises then begin
              if not reached.(h) then begin
                reached.(h) <- true;
                changed := true
              end;
              for k = 0 to nsites - 1 do
                let j = states.(h).(k) lor s.(k) in
                if j <> states.(h).(k) then begin
                  states.(h).(k) <- j;
                  changed := true
                end
              done
            end;
            List.iter
              (fun ev -> if is_acquire ev then apply s ev)
              info.si_events)
          infos.(node);
        List.iter
          (fun succ ->
            if not reached.(succ) then begin
              reached.(succ) <- true;
              changed := true
            end;
            for k = 0 to nsites - 1 do
              let j = states.(succ).(k) lor s.(k) in
              if j <> states.(succ).(k) then begin
                states.(succ).(k) <- j;
                changed := true
              end
            done)
          (Cfg.succs cfg node)
      end
    done
  done;
  (* -- reports *)
  let diags = ref [] in
  let report rule loc msg =
    diags := Diagnostic.make ~file:path ~loc ~rule msg :: !diags
  in
  (* double release: a release whose in-state is exactly Released on
     every path (Held|Released means a first release on some path) *)
  for node = 0 to n - 1 do
    if reached.(node) then begin
      let s = Array.copy states.(node) in
      List.iter
        (fun info ->
          List.iter
            (fun e ->
              (match e with
              | Release (k, loc) ->
                  let sk = sites.(k) in
                  if (not sk.sk_escaped) && s.(k) = released then
                    report "proto-double-release" loc
                      (Printf.sprintf
                         "protocol %s: this %s call receives a value already \
                          released on every path to this point"
                         sk.sk_proto.p_name
                         (String.concat "/" sk.sk_proto.p_release))
              | _ -> ());
              apply s e)
            info.si_events)
        infos.(node)
    end
  done;
  let leak_msg s =
    let bracket =
      match s.sk_proto.p_bracket with
      | [] -> ""
      | bs -> Printf.sprintf " (or use %s)" (String.concat "/" bs)
    in
    Printf.sprintf
      "protocol %s: value acquired via %s may reach the end of this \
       function without %s; release it on every path%s"
      s.sk_proto.p_name s.sk_fn
      (String.concat "/" s.sk_proto.p_release)
      bracket
  in
  Array.iteri
    (fun k s ->
      if not s.sk_escaped then begin
        let exit_held =
          reached.(Cfg.exit_node cfg)
          && states.(Cfg.exit_node cfg).(k) land held <> 0
        in
        let exn_held =
          reached.(Cfg.exn_exit cfg)
          && states.(Cfg.exn_exit cfg).(k) land held <> 0
        in
        if exit_held then report "proto-leak" s.sk_loc (leak_msg s)
        else if exn_held then
          report "missing-protect" s.sk_loc
            (Printf.sprintf
               "protocol %s: value acquired via %s is live across a call \
                that may raise, and the exceptional path skips %s; wrap \
                the span in Fun.protect ~finally"
               s.sk_proto.p_name s.sk_fn
               (String.concat "/" s.sk_proto.p_release))
      end)
    sites;
  List.iter
    (fun s ->
      report "proto-leak" s.sk_loc
        (Printf.sprintf
           "protocol %s: the result of %s is discarded, so nothing can \
            ever release it (release: %s)"
           s.sk_proto.p_name s.sk_fn
           (String.concat "/" s.sk_proto.p_release)))
    (List.rev !dropped);
  !diags

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let run ~decl ~leak ~double ~protect ~summaries files =
  if decl = [] || ((not leak) && (not double) && not protect) then []
  else
    List.concat_map
      (fun (path, str) ->
        let current_module = Syntax.module_name_of_path path in
        List.concat_map
          (fun body -> analyze_fn ~decl ~summaries ~current_module ~path body)
          (function_bodies str))
      files
    |> List.filter (fun (d : Diagnostic.t) ->
           match d.rule with
           | "proto-leak" -> leak
           | "proto-double-release" -> double
           | "missing-protect" -> protect
           | _ -> true)
