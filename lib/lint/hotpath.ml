(* Hot-path allocation analysis (see hotpath.mli). Two ingredients:
   a worklist over the call graph starting from Pool task bodies and a
   fixed root table of serving-loop entry points, and a syntactic walk
   of each hot function that tracks loop depth so only per-iteration
   (or per-call, for loop-hot functions) allocations fire. *)

open Parsetree

(* Serving-loop roots: key, obs phase-timer name, rank (1 = hottest to
   triage first), and whether the function itself is called once per
   request/iteration so even its straight-line allocations count. *)
let roots =
  [
    ("Loop.play_direct", "serve/play", 1, false);
    ("Loop.play_faulted", "serve/play", 2, false);
    ("Loop.play_soa", "serve/play", 2, false);
    ("Loop.run_soa", "serve/play", 2, false);
    ("Capacity.fits", "resil/capacity", 3, true);
    ("Capacity.reserve", "resil/capacity", 3, true);
    ("Capacity.expire", "resil/capacity", 3, true);
    ("Router.route", "resil/route", 4, true);
    ("Fleet.serve", "serve", 5, true);
    ("Fleet.serve_local", "serve", 5, true);
    ("Fleet.fetch", "serve", 5, true);
    ("Metrics.add_stream", "playout", 6, true);
    ("Master.solve", "solve/master", 7, false);
  ]

(* Iterator functions whose functional argument runs once per element:
   a lambda passed here is a per-iteration closure, and its body is
   loop context. *)
let iterator_arity =
  [
    ("Array.iter", 0); ("Array.iteri", 0); ("Array.map", 0); ("Array.mapi", 0);
    ("Array.fold_left", 0); ("Array.fold_right", 0); ("Array.for_all", 0);
    ("Array.exists", 0); ("Array.iter2", 0); ("Array.map2", 0);
    ("Array.sort", 0); ("List.iter", 0); ("List.iteri", 0); ("List.map", 0);
    ("List.mapi", 0); ("List.rev_map", 0); ("List.fold_left", 0);
    ("List.fold_right", 0); ("List.filter", 0); ("List.filter_map", 0);
    ("List.concat_map", 0); ("List.for_all", 0); ("List.exists", 0);
    ("List.find", 0); ("List.find_opt", 0); ("List.find_map", 0);
    ("List.sort", 0); ("List.stable_sort", 0); ("List.partition", 0);
    ("Hashtbl.iter", 0); ("Hashtbl.fold", 0); ("Seq.iter", 0); ("Seq.map", 0);
    ("Seq.fold_left", 0); ("Queue.iter", 0);
  ]

let is_iterator name = List.mem_assoc name iterator_arity

(* Functions that build a list per call — calling one per iteration
   allocates O(n) per iteration. *)
let list_builders =
  [
    "List.map"; "List.mapi"; "List.rev_map"; "List.filter"; "List.filter_map";
    "List.concat_map"; "List.init"; "List.append"; "List.concat"; "List.rev";
    "List.sort"; "List.stable_sort"; "List.of_seq"; "Array.to_list"; "@";
  ]

(* Allocating constructors tolerated once per call but not once per
   syntactic-loop iteration. *)
let allocating_calls =
  [
    "Array.make"; "Array.init"; "Array.copy"; "Array.append"; "Array.sub";
    "Array.of_list"; "Array.concat"; "Array.make_matrix"; "Hashtbl.create";
    "Buffer.create"; "Bytes.create"; "Bytes.make"; "String.make"; "String.sub";
    "String.concat"; "Printf.sprintf"; "Format.asprintf";
  ]

let hashtbl_float_key_ops =
  [
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.find"; "Hashtbl.find_opt";
    "Hashtbl.mem"; "Hashtbl.remove";
  ]

let float_ops =
  [
    "+."; "-."; "*."; "/."; "~-."; "~+."; "abs_float"; "float_of_int";
    "Float.of_int"; "Float.abs"; "Float.min"; "Float.max"; "Float.rem";
    "sqrt"; "ceil"; "floor";
  ]

(* Conservatively: is this expression a float, judged syntactically?
   Only used to gate the boxing rules, so false negatives are fine. *)
let rec looks_float e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply (f, _) -> (
      match Syntax.callee_name f with
      | Some n -> List.mem n float_ops
      | None -> false)
  | Pexp_constraint (b, _) -> looks_float b
  | _ -> false

(* A local [let] that allocates a closure. Unlike [Syntax.is_function],
   a locally abstract type counts even over a non-function body, and a
   type constraint only over a [fun]. *)
let allocates_closure e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | Pexp_constraint ({ pexp_desc = Pexp_fun _; _ }, _) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Hot-set state                                                       *)

type hot = {
  h_phase : string;
  h_rank : int;
  mutable h_loop : bool; (* called per iteration somewhere *)
}

type st = {
  defs : (string, Syntax.def) Hashtbl.t;
  hots : (string, hot) Hashtbl.t;
  mutable queue : string list;
  mutable diags : Diagnostic.t list;
  (* (file, key, kind, loopctx) -> already reported, so re-scans after
     a loop-hot upgrade don't duplicate. *)
  seen : (string * string * string * bool, unit) Hashtbl.t;
}

let resolve st current_module name =
  Syntax.candidates ~current_module (Syntax.normalize name)
  |> List.find_opt (Hashtbl.mem st.defs)

let mark_hot st key ~phase ~rank ~loop =
  match Hashtbl.find_opt st.hots key with
  | None ->
      Hashtbl.add st.hots key { h_phase = phase; h_rank = rank; h_loop = loop };
      st.queue <- key :: st.queue
  | Some h ->
      if loop && not h.h_loop then begin
        h.h_loop <- true;
        st.queue <- key :: st.queue
      end

let report st (d : Syntax.def) ~key ~phase ~rank ~loc ~kind ~loopctx msg =
  let dedup = (d.d_path, key, kind, loopctx) in
  if not (Hashtbl.mem st.seen dedup) then begin
    Hashtbl.add st.seen dedup ();
    let ctxword = if loopctx then "per iteration" else "per call" in
    st.diags <-
      Diagnostic.make ~file:d.d_path ~loc ~rule:"alloc-in-hot"
        (Printf.sprintf "%s allocated %s in hot path %s (obs phase %s, rank %d); %s"
           kind ctxword key phase rank msg)
      :: st.diags
  end

(* ------------------------------------------------------------------ *)
(* Scanning one hot function                                           *)

(* [inl] is syntactic loop depth inside this function; [loop_hot]
   means the whole function runs per iteration of some caller's loop.
   Allocation context is active when either holds. *)
let scan_def st (d : Syntax.def) ~key ~phase ~rank ~loop_hot =
  let current_module = Syntax.module_of_key key in
  let edges = ref [] in
  let edge name ~loopctx = edges := (name, loopctx) :: !edges in
  let rec walk ~inl ~cons_tail e =
    let active = loop_hot || inl > 0 in
    let loopctx = inl > 0 in
    let rep ~kind ~loc msg = report st d ~key ~phase ~rank ~loc ~kind ~loopctx msg in
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_newtype _ ->
        if active then
          rep ~kind:"closure" ~loc:e.pexp_loc
            "hoist it out of the loop or use an explicit for loop";
        walk ~inl ~cons_tail:false (snd (Syntax.params e))
    | Pexp_function cases ->
        if active then
          rep ~kind:"closure" ~loc:e.pexp_loc
            "hoist it out of the loop or use an explicit for loop";
        List.iter
          (fun c ->
            Option.iter (walk ~inl ~cons_tail:false) c.pc_guard;
            walk ~inl ~cons_tail:false c.pc_rhs)
          cases
    | Pexp_tuple es ->
        if active && not cons_tail then
          rep ~kind:"tuple" ~loc:e.pexp_loc
            "return components via mutable fields or separate values";
        List.iter (walk ~inl ~cons_tail:false) es
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some arg) ->
        if active && not cons_tail then
          rep ~kind:"list cons" ~loc:e.pexp_loc
            "accumulate into a preallocated array or reuse a buffer";
        (* The payload is (head, tail); neither the pair nor the tail
           cons is a second allocation site worth a second finding. *)
        (match arg.pexp_desc with
        | Pexp_tuple [ hd; tl ] ->
            walk ~inl ~cons_tail:false hd;
            walk ~inl ~cons_tail:true tl
        | _ -> walk ~inl ~cons_tail:true arg)
    | Pexp_construct (_, arg) -> Option.iter (walk ~inl ~cons_tail) arg
    | Pexp_record (fields, base) ->
        if inl > 0 then
          rep ~kind:"record" ~loc:e.pexp_loc
            "reuse a mutable record or split into scalar locals";
        Option.iter (walk ~inl ~cons_tail:false) base;
        List.iter (fun (_, fv) -> walk ~inl ~cons_tail:false fv) fields
    | Pexp_for (_, lo, hi, _, body) ->
        walk ~inl ~cons_tail:false lo;
        walk ~inl ~cons_tail:false hi;
        walk ~inl:(inl + 1) ~cons_tail:false body
    | Pexp_while (c, body) ->
        walk ~inl ~cons_tail:false c;
        walk ~inl:(inl + 1) ~cons_tail:false body
    | Pexp_apply (f, args) -> apply ~inl ~cons_tail e f args
    | Pexp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            if allocates_closure vb.pvb_expr then begin
              (* A local function definition: allocating the closure
                 counts, and its body inherits this context. *)
              if active then
                rep ~kind:"closure" ~loc:vb.pvb_loc
                  "hoist the local function to toplevel or inline it";
              walk ~inl ~cons_tail:false (snd (Syntax.params vb.pvb_expr))
            end
            else walk ~inl ~cons_tail:false vb.pvb_expr)
          vbs;
        walk ~inl ~cons_tail:false body
    | Pexp_ident { txt; _ } ->
        (* A bare reference to a known function in loop context — e.g.
           [Array.iter f xs] handled in [apply]; here it is just a
           value use, no edge (partial applications go through
           Pexp_apply). *)
        ignore txt
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        walk ~inl ~cons_tail:false scrut;
        List.iter
          (fun c ->
            Option.iter (walk ~inl ~cons_tail:false) c.pc_guard;
            walk ~inl ~cons_tail c.pc_rhs)
          cases
    | Pexp_ifthenelse (c, t, eo) ->
        walk ~inl ~cons_tail:false c;
        walk ~inl ~cons_tail t;
        Option.iter (walk ~inl ~cons_tail) eo
    | Pexp_sequence (a, b) ->
        walk ~inl ~cons_tail:false a;
        walk ~inl ~cons_tail b
    | _ -> Syntax.iter_children (walk ~inl ~cons_tail:false) e
  and apply ~inl ~cons_tail e f args =
    let active = loop_hot || inl > 0 in
    let loopctx = inl > 0 in
    let rep ~kind ~loc msg = report st d ~key ~phase ~rank ~loc ~kind ~loopctx msg in
    let walk_args ~inl = List.iter (fun (_, a) -> walk ~inl ~cons_tail:false a) args in
    match Syntax.callee_name f with
    | None ->
        walk ~inl ~cons_tail:false f;
        walk_args ~inl
    | Some name -> (
        match Syntax.pipeline name args with
        | Some (fn, x) -> retarget ~inl ~cons_tail e fn [ (Asttypes.Nolabel, x) ]
        | None ->
            if List.mem name Syntax.pool_entries then begin
              (* Pool tasks are handled by the dedicated pool pass;
                 walk only the non-functional arguments here. *)
              let lbl = Syntax.pool_task_label name in
              List.iter
                (fun (l, a) ->
                  match l with
                  | Asttypes.Labelled l' when l' = lbl -> ()
                  | _ -> walk ~inl ~cons_tail:false a)
                args
            end
            else begin
              if active && List.mem name list_builders then
                rep ~kind:"list building" ~loc:e.pexp_loc
                  "precompute outside the loop or switch to arrays";
              if inl > 0 && List.mem name allocating_calls then
                rep ~kind:"data structure" ~loc:e.pexp_loc
                  "allocate once outside the loop and reuse";
              if name = "ref" && active then
                rep ~kind:"ref cell" ~loc:e.pexp_loc
                  "use a mutable local or hoist the ref";
              (* Float boxing: polymorphic compare/min/max on a float
                 operand, or Hashtbl keyed by a float. These box on
                 every call, loop or not. *)
              (match name with
              | "compare" | "min" | "max"
                when List.exists (fun (_, a) -> looks_float a) args ->
                  rep ~kind:"boxed float (polymorphic compare)" ~loc:e.pexp_loc
                    "use Float.compare / Float.min / Float.max"
              | _ -> ());
              (if List.mem name hashtbl_float_key_ops then
                 match args with
                 | _ :: (_, k) :: _ when looks_float k ->
                     rep ~kind:"boxed float (Hashtbl key)" ~loc:e.pexp_loc
                       "key the table by an int id instead of a float"
                 | _ -> ());
              if is_iterator name then begin
                (* Functional arguments run per element: lambdas were
                   already flagged as closures by the Pexp_fun case
                   when active; their bodies are loop context, and
                   ident arguments become loop-hot edges. *)
                List.iter
                  (fun (_, a) ->
                    match a.pexp_desc with
                    | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
                        if active then
                          rep ~kind:"closure" ~loc:a.pexp_loc
                            "hoist it out of the loop or use an explicit for \
                             loop";
                        walk_iter_body ~inl (snd (Syntax.params a))
                    | Pexp_ident _ ->
                        Option.iter
                          (fun n -> edge n ~loopctx:true)
                          (Syntax.ident_of a)
                    | _ -> walk ~inl ~cons_tail:false a)
                  args
              end
              else begin
                edge name ~loopctx:(loop_hot || loopctx);
                walk_args ~inl;
                (* A known function passed as an argument (callback)
                   also becomes hot. *)
                List.iter
                  (fun (_, a) ->
                    match a.pexp_desc with
                    | Pexp_ident _ when resolve st current_module
                                          (Option.get (Syntax.ident_of a))
                                        <> None ->
                        edge (Option.get (Syntax.ident_of a)) ~loopctx:active
                    | _ -> ())
                  args
              end
            end)
  and walk_iter_body ~inl body =
    match body.pexp_desc with
    | Pexp_function cases ->
        List.iter
          (fun c ->
            Option.iter (walk ~inl:(inl + 1) ~cons_tail:false) c.pc_guard;
            walk ~inl:(inl + 1) ~cons_tail:false c.pc_rhs)
          cases
    | _ -> walk ~inl:(inl + 1) ~cons_tail:false body
  and retarget ~inl ~cons_tail e fn args =
    match fn.pexp_desc with
    | Pexp_ident _ -> apply ~inl ~cons_tail e fn args
    | Pexp_apply (f2, args2) ->
        apply ~inl ~cons_tail e f2 (List.rev_append (List.rev args2) args)
    | _ ->
        walk ~inl ~cons_tail:false fn;
        List.iter (fun (_, a) -> walk ~inl ~cons_tail:false a) args
  in
  let body = snd (Syntax.params d.d_expr) in
  (match body.pexp_desc with
  | Pexp_function cases ->
      List.iter
        (fun c ->
          Option.iter (walk ~inl:0 ~cons_tail:false) c.pc_guard;
          walk ~inl:0 ~cons_tail:false c.pc_rhs)
        cases
  | _ -> walk ~inl:0 ~cons_tail:false body);
  !edges

(* ------------------------------------------------------------------ *)
(* The pool pass: find Pool task bodies anywhere in the tree           *)

let pool_pass st files =
  List.iter
    (fun (path, str) ->
      let m = Syntax.module_name_of_path path in
      let task a =
        match a.pexp_desc with
        | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
            let d =
              { Syntax.d_key = m ^ " pool task"; d_path = path; d_loc = a.pexp_loc; d_expr = a }
            in
            ignore (scan_def st d ~key:d.d_key ~phase:"pool" ~rank:2 ~loop_hot:true)
        | Pexp_ident _ -> (
            match Option.bind (Syntax.ident_of a) (resolve st m) with
            | Some k -> mark_hot st k ~phase:"pool" ~rank:2 ~loop:true
            | None -> ())
        | _ -> ()
      in
      Syntax.iter_structure_exprs
        (fun e ->
          match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              match Syntax.callee_name f with
              | Some name when List.mem name Syntax.pool_entries ->
                  let lbl = Syntax.pool_task_label name in
                  List.iter
                    (fun (l, a) ->
                      match l with
                      | Asttypes.Labelled l' when l' = lbl -> task a
                      | _ -> ())
                    args
              | _ -> ())
          | _ -> ())
        str)
    files

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let run files =
  let deftbl = Hashtbl.create 256 in
  List.iter
    (fun (d : Syntax.def) ->
      if not (Hashtbl.mem deftbl d.d_key) then Hashtbl.add deftbl d.d_key d)
    (Syntax.collect_defs files);
  let st =
    {
      defs = deftbl;
      hots = Hashtbl.create 64;
      queue = [];
      diags = [];
      seen = Hashtbl.create 64;
    }
  in
  (* Seed the fixed serving-loop roots that exist in this tree. *)
  List.iter
    (fun (key, phase, rank, loop) ->
      if Hashtbl.mem deftbl key then mark_hot st key ~phase ~rank ~loop)
    roots;
  (* Pool task bodies: scanned directly (lambdas) or seeded (idents). *)
  pool_pass st files;
  (* Worklist: a key may be processed twice — once hot, once more
     after a loop-hot upgrade; the per-(key, kind, loopctx) dedup in
     [report] keeps findings stable. *)
  let rec drain () =
    match st.queue with
    | [] -> ()
    | key :: rest ->
        st.queue <- rest;
        (match (Hashtbl.find_opt deftbl key, Hashtbl.find_opt st.hots key) with
        | Some d, Some h ->
            let edges =
              scan_def st d ~key ~phase:h.h_phase ~rank:h.h_rank
                ~loop_hot:h.h_loop
            in
            let current_module = Syntax.module_of_key key in
            List.iter
              (fun (name, loopctx) ->
                match resolve st current_module name with
                | Some callee ->
                    (* Reaching a callee from a non-loop site of a
                       merely-hot function adds nothing: it is not per
                       iteration. Loop sites and loop-hot callers
                       propagate. *)
                    if loopctx then
                      mark_hot st callee ~phase:h.h_phase ~rank:h.h_rank
                        ~loop:true
                | None -> ())
              edges
        | _ -> ());
        drain ()
  in
  drain ();
  st.diags
