(* The project-mode baseline: accepted findings that should not fail
   the build. Entries are [file TAB rule TAB message] — deliberately
   line-number-free so a baseline survives unrelated edits above the
   finding. Matching is by exact triple; a fixed finding leaves a stale
   entry behind, which the CLI reports so baselines shrink over time. *)

type entry = { b_file : string; b_rule : string; b_message : string }

type t = entry list

let empty = []

let header =
  "# vodlint baseline: accepted findings, one per line as\n\
   # file<TAB>rule<TAB>message\n\
   # Regenerate with: vodlint --project --write-baseline\n"

let entry_of_diag (d : Diagnostic.t) =
  { b_file = d.file; b_rule = d.rule; b_message = d.message }

let matches e (d : Diagnostic.t) =
  e.b_file = d.file && e.b_rule = d.rule && e.b_message = d.message

let compare_entry a b =
  match String.compare a.b_file b.b_file with
  | 0 -> (
      match String.compare a.b_rule b.b_rule with
      | 0 -> String.compare a.b_message b.b_message
      | c -> c)
  | c -> c

let of_diagnostics diags =
  List.map entry_of_diag diags |> List.sort_uniq compare_entry

let of_string src =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char '\t' line with
           | file :: rule :: rest when rest <> [] ->
               Some { b_file = file; b_rule = rule; b_message = String.concat "\t" rest }
           | _ -> None)
  |> List.sort_uniq compare_entry

let to_string t =
  let lines =
    List.sort_uniq compare_entry t
    |> List.map (fun e ->
           Printf.sprintf "%s\t%s\t%s" e.b_file e.b_rule e.b_message)
  in
  header ^ String.concat "\n" lines ^ if lines = [] then "" else "\n"

let load path =
  if Sys.file_exists path then of_string (Syntax.read_file path) else empty

let save path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))

type applied = {
  fresh : Diagnostic.t list;  (* findings not covered by the baseline *)
  baselined : int;            (* findings the baseline absorbed *)
  stale : entry list;         (* baseline entries matching nothing *)
}

let apply t diags =
  let fresh, baselined =
    List.fold_left
      (fun (fresh, n) d ->
        if List.exists (fun e -> matches e d) t then (fresh, n + 1)
        else (d :: fresh, n))
      ([], 0) diags
  in
  (* A baseline built programmatically (not via [of_string]) may hold
     duplicate entries; report each stale line once. *)
  let stale =
    List.filter (fun e -> not (List.exists (fun d -> matches e d) diags)) t
    |> List.sort_uniq compare_entry
  in
  { fresh = List.rev fresh; baselined; stale }

let entry_to_string e = Printf.sprintf "%s\t%s\t%s" e.b_file e.b_rule e.b_message
