(* Phase-4a: intraprocedural control-flow graphs over parsetree
   expressions. See cfg.mli for the node/edge model. The graph is built
   in one pass by [go], which threads a "current node" through the
   expression and returns the node where the expression's value is
   available; control constructs allocate fresh nodes and edges.

   Exceptional flow is an edge property, not extra nodes: every node
   records the single [handler] node a raise inside it lands on (the
   innermost enclosing try's handler entry, or the graph's [exn_exit]).
   The dataflow decides per-statement whether a raise can actually
   happen; the CFG only says where it would go. *)

open Parsetree

type stmt = Bind of pattern * expression | Eval of expression

type node = {
  mutable stmts_rev : stmt list;
  mutable succs_rev : int list;
  mutable handler : int;
}

type t = {
  nodes : node array;
  t_entry : int;
  t_exit : int;
  t_exn : int;
}

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)

type builder = { mutable nodes : node array; mutable len : int }

let new_node b ~handler =
  if b.len = Array.length b.nodes then begin
    let bigger =
      Array.make (2 * Array.length b.nodes)
        { stmts_rev = []; succs_rev = []; handler = 0 }
    in
    Array.blit b.nodes 0 bigger 0 b.len;
    b.nodes <- bigger
  end;
  b.nodes.(b.len) <- { stmts_rev = []; succs_rev = []; handler };
  b.len <- b.len + 1;
  b.len - 1

let link b from to_ =
  let n = b.nodes.(from) in
  if not (List.mem to_ n.succs_rev) then n.succs_rev <- to_ :: n.succs_rev

let add_stmt b node s =
  let n = b.nodes.(node) in
  n.stmts_rev <- s :: n.stmts_rev

(* ------------------------------------------------------------------ *)
(* Name tables                                                         *)

(* Calls that run a literal closure argument zero or more times and
   never store it: the closure body is inlined as a loop. *)
let iterators =
  [
    "List.iter"; "List.iteri"; "List.iter2"; "List.map"; "List.mapi";
    "List.rev_map"; "List.concat_map"; "List.filter_map"; "List.filter";
    "List.fold_left"; "List.fold_right"; "List.for_all"; "List.exists";
    "List.find"; "List.find_opt"; "List.find_map"; "List.partition";
    "List.sort"; "List.stable_sort"; "List.sort_uniq"; "List.init";
    "Array.iter"; "Array.iteri"; "Array.iter2"; "Array.map"; "Array.mapi";
    "Array.map2"; "Array.fold_left"; "Array.fold_right"; "Array.for_all";
    "Array.exists"; "Array.init"; "Array.sort"; "Array.stable_sort";
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.filter_map_inplace";
    "Option.iter"; "Option.map"; "Option.fold"; "Option.bind";
    "Seq.iter"; "Seq.map"; "Seq.filter"; "Seq.fold_left";
    "Queue.iter"; "Queue.fold"; "Stack.iter"; "Stack.fold";
    "Pool.map"; "Pool.mapi"; "Pool.iteri"; "Pool.map_reduce";
  ]

(* Calls that run a literal closure argument exactly once, in place:
   the closure body is inlined linearly. Fun.protect is handled
   structurally before this list is consulted. *)
let once_runners =
  [
    "Obs.phase"; "Obs.with_run"; "Obs.batch_chunk";
    "Checkpoint.run"; "Checkpoint.with_stdout_to"; "Pool.with_pool";
  ]

let borrows_closures name =
  name = "Fun.protect" || List.mem name iterators
  || List.mem name once_runners

(* ------------------------------------------------------------------ *)
(* Lambda plumbing                                                     *)

(* The body of a literal lambda, with every leading parameter stripped;
   None for anything that is not a single-body lambda (multi-case
   [function] stays opaque — inlining would need a scrutinee). *)
let rec lambda_body e =
  match e.pexp_desc with
  | Pexp_fun _ -> Some (Syntax.lambda_interior e)
  | Pexp_newtype (_, inner) | Pexp_constraint (inner, _) -> lambda_body inner
  | _ -> None

let find_lambda args =
  List.find_map
    (fun (_, a) -> Option.map (fun body -> (a, body)) (lambda_body a))
    args

let labelled_lambda label args =
  List.find_map
    (fun (lbl, a) ->
      match lbl with
      | Asttypes.Labelled l when l = label ->
          Option.map (fun body -> (a, body)) (lambda_body a)
      | _ -> None)
    args

(* A case pattern that catches everything (so an uncaught-exception
   edge out of the handler entry is not needed). *)
let catch_all_case c =
  c.pc_guard = None
  && (match c.pc_lhs.ppat_desc with
     | Ppat_any | Ppat_var _ -> true
     | _ -> false)

let is_exception_case c =
  match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)

(* [go b ~bind cur handler e] appends the evaluation of [e] to the
   graph starting at node [cur] (raises landing on [handler]) and
   returns the node holding [e]'s value; [bind] is the pattern that
   value is bound to, if any. *)
let rec go b ~bind cur handler e =
  let atomic () =
    add_stmt b cur (match bind with Some p -> Bind (p, e) | None -> Eval e);
    cur
  in
  match e.pexp_desc with
  | Pexp_sequence (a, rest) ->
      let cur = go b ~bind:None cur handler a in
      go b ~bind cur handler rest
  | Pexp_let (_, vbs, body) ->
      let cur =
        List.fold_left
          (fun cur vb -> go b ~bind:(Some vb.pvb_pat) cur handler vb.pvb_expr)
          cur vbs
      in
      go b ~bind cur handler body
  | Pexp_constraint (inner, _) | Pexp_newtype (_, inner) ->
      go b ~bind cur handler inner
  | Pexp_open (_, inner)
  | Pexp_letmodule (_, _, inner)
  | Pexp_letexception (_, inner) ->
      go b ~bind cur handler inner
  | Pexp_ifthenelse (cond, then_e, else_o) ->
      let cur = go b ~bind:None cur handler cond in
      let tn = new_node b ~handler in
      link b cur tn;
      let t_end = go b ~bind tn handler then_e in
      let e_end =
        match else_o with
        | Some else_e ->
            let en = new_node b ~handler in
            link b cur en;
            go b ~bind en handler else_e
        | None -> cur
      in
      let join = new_node b ~handler in
      link b t_end join;
      link b e_end join;
      join
  | Pexp_match (scrut, cases) ->
      let exn_cases, val_cases = List.partition is_exception_case cases in
      let scrut_end, exn_entry =
        if exn_cases = [] then (go b ~bind:None cur handler scrut, None)
        else begin
          (* [match e with exception ...]: the exception cases handle
             raises from the scrutinee evaluation only. *)
          let h = new_node b ~handler in
          let sn = new_node b ~handler:h in
          link b cur sn;
          (go b ~bind:None sn h scrut, Some h)
        end
      in
      let join = new_node b ~handler in
      let build_case from ~alias c =
        let n = new_node b ~handler in
        link b from n;
        (* Case-bound variables alias the scrutinee's value, so a
           protocol token flows into [Some c -> ... c ...] arms. *)
        if alias then add_stmt b n (Bind (c.pc_lhs, scrut));
        let n =
          match c.pc_guard with
          | Some g -> go b ~bind:None n handler g
          | None -> n
        in
        let n_end = go b ~bind n handler c.pc_rhs in
        link b n_end join
      in
      List.iter (build_case scrut_end ~alias:true) val_cases;
      (match exn_entry with
      | None -> ()
      | Some h ->
          List.iter (build_case h ~alias:false) exn_cases;
          if not (List.exists catch_all_case exn_cases) then link b h handler);
      join
  | Pexp_try (body, cases) ->
      let h = new_node b ~handler in
      let bn = new_node b ~handler:h in
      link b cur bn;
      let b_end = go b ~bind bn h body in
      let join = new_node b ~handler in
      link b b_end join;
      List.iter
        (fun c ->
          let n = new_node b ~handler in
          link b h n;
          let n =
            match c.pc_guard with
            | Some g -> go b ~bind:None n handler g
            | None -> n
          in
          let n_end = go b ~bind n handler c.pc_rhs in
          link b n_end join)
        cases;
      (* A non-matching exception falls through to the outer handler. *)
      if not (List.exists catch_all_case cases) then link b h handler;
      join
  | Pexp_while (cond, body) ->
      let head = new_node b ~handler in
      link b cur head;
      let head_end = go b ~bind:None head handler cond in
      let bn = new_node b ~handler in
      link b head_end bn;
      let b_end = go b ~bind:None bn handler body in
      link b b_end head;
      let after = new_node b ~handler in
      link b head_end after;
      after
  | Pexp_for (_, lo, hi, _, body) ->
      let cur = go b ~bind:None cur handler lo in
      let cur = go b ~bind:None cur handler hi in
      let head = new_node b ~handler in
      link b cur head;
      let bn = new_node b ~handler in
      link b head bn;
      let b_end = go b ~bind:None bn handler body in
      link b b_end head;
      let after = new_node b ~handler in
      link b head after;
      after
  | Pexp_apply (f, args) -> (
      match Syntax.callee_name f with
      | Some name when List.mem name Syntax.raise_family ->
          (* The raise ends this path; the continuation is unreachable
             (a fresh node with no predecessors). *)
          add_stmt b cur (Eval e);
          new_node b ~handler
      | Some "ignore" -> (
          match args with
          | [ (_, a) ] -> go b ~bind:None cur handler a
          | _ -> atomic ())
      | Some "Fun.protect" -> (
          match (labelled_lambda "finally" args, find_main_thunk args) with
          | Some (_, fin), Some body ->
              (* Exceptional path: body's handler runs a copy of the
                 finally, then re-raises to the outer handler. *)
              let fh = new_node b ~handler in
              let fh_end = go b ~bind:None fh handler fin in
              link b fh_end handler;
              let bn = new_node b ~handler:fh in
              link b cur bn;
              let b_end = go b ~bind bn fh body in
              (* Normal path: a second copy of the finally, then on. *)
              let fn = new_node b ~handler in
              link b b_end fn;
              go b ~bind:None fn handler fin
          | _ -> atomic ())
      | Some name when List.mem name once_runners -> (
          match find_lambda args with
          | Some (lam, body) ->
              let cur = eval_other_args b cur handler args lam in
              let bn = new_node b ~handler in
              link b cur bn;
              let b_end = go b ~bind:None bn handler body in
              let after = new_node b ~handler in
              link b b_end after;
              (match bind with
              | Some p -> add_stmt b after (Bind (p, e))
              | None -> ());
              after
          | None -> atomic ())
      | Some name when List.mem name iterators -> (
          match find_lambda args with
          | Some (lam, body) ->
              (* Loop shape: the closure runs zero or more times, and an
                 exception inside it propagates to this call site. *)
              let cur = eval_other_args b cur handler args lam in
              let head = new_node b ~handler in
              link b cur head;
              let bn = new_node b ~handler in
              link b head bn;
              let b_end = go b ~bind:None bn handler body in
              link b b_end head;
              let after = new_node b ~handler in
              link b head after;
              (match bind with
              | Some p -> add_stmt b after (Bind (p, e))
              | None -> ());
              after
          | None -> atomic ())
      | Some _ | None -> atomic ())
  | _ -> atomic ()

and eval_other_args b cur handler args lam =
  List.fold_left
    (fun cur (_, a) -> if a == lam then cur else go b ~bind:None cur handler a)
    cur args

(* The protected thunk of Fun.protect: the last unlabelled lambda. *)
and find_main_thunk args =
  List.fold_left
    (fun acc (lbl, a) ->
      match lbl with
      | Asttypes.Nolabel -> (
          match lambda_body a with Some body -> Some body | None -> acc)
      | _ -> acc)
    None args

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let rec strip_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, inner) -> strip_params inner
  | Pexp_newtype (_, inner) -> strip_params inner
  | Pexp_constraint (inner, _)
    when (match inner.pexp_desc with
         | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
         | _ -> false) ->
      strip_params inner
  | _ -> e

let build e =
  let b = { nodes = Array.make 16 { stmts_rev = []; succs_rev = []; handler = 0 }; len = 0 } in
  let exn = new_node b ~handler:0 in
  b.nodes.(exn).handler <- exn;
  let exit_n = new_node b ~handler:exn in
  let entry = new_node b ~handler:exn in
  let body = strip_params e in
  (match body.pexp_desc with
  | Pexp_function cases ->
      (* A root-level [function]: one branch per case over the (opaque)
         parameter. *)
      List.iter
        (fun c ->
          let n = new_node b ~handler:exn in
          link b entry n;
          let n =
            match c.pc_guard with
            | Some g -> go b ~bind:None n exn g
            | None -> n
          in
          let n_end = go b ~bind:None n exn c.pc_rhs in
          link b n_end exit_n)
        cases
  | _ ->
      let last = go b ~bind:None entry exn body in
      link b last exit_n);
  { nodes = Array.sub b.nodes 0 b.len; t_entry = entry; t_exit = exit_n; t_exn = exn }

let n_nodes (t : t) = Array.length t.nodes
let entry t = t.t_entry
let exit_node t = t.t_exit
let exn_exit t = t.t_exn
let stmts (t : t) i = List.rev t.nodes.(i).stmts_rev
let succs (t : t) i = List.rev t.nodes.(i).succs_rev
let handler (t : t) i = t.nodes.(i).handler
