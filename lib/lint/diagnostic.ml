(* A single lint finding, anchored to a source position. Rendering is
   pure (returns strings); the [vodlint] executable decides where the
   text goes, so this library stays free of direct console output. *)

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let make ~file ~loc ~rule message =
  let p = loc.Location.loc_start in
  {
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    message;
  }

(* The message is the last key: two findings at one position under one
   rule (a tuple and the list cons around it start at the same column)
   are distinct, and only exact duplicates compare equal, so
   [List.sort_uniq compare] keeps both whatever the input order. *)
let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let to_text d = Printf.sprintf "%s:%d:%d [%s] %s" d.file d.line d.col d.rule d.message

(* GitHub Actions workflow-command annotation. Property values escape
   %, \r, \n as %25, %0D, %0A and also , and : (the property
   separators); the free-text message only needs the first three. *)
let gh_escape ~prop s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '\r' -> Buffer.add_string buf "%0D"
      | '\n' -> Buffer.add_string buf "%0A"
      | ',' when prop -> Buffer.add_string buf "%2C"
      | ':' when prop -> Buffer.add_string buf "%3A"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_github d =
  Printf.sprintf "::warning file=%s,line=%d,col=%d,title=vodlint %s::%s"
    (gh_escape ~prop:true d.file) d.line (d.col + 1)
    (gh_escape ~prop:true d.rule)
    (gh_escape ~prop:false d.message)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  Printf.sprintf {|{"file":"%s","line":%d,"col":%d,"rule":"%s","message":"%s"}|}
    (json_escape d.file) d.line d.col (json_escape d.rule) (json_escape d.message)

let list_to_json ds =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ",\n ";
      Buffer.add_string buf (to_json d))
    ds;
  Buffer.add_string buf "]";
  Buffer.contents buf
