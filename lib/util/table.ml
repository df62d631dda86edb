(* Plain-text table rendering for the bench harness and examples. Every
   paper table/figure is re-emitted as an aligned ASCII table so that runs
   can be diffed against EXPERIMENTS.md. *)

type align = Left | Right

let render ?(align = Right) ~header rows =
  let ncols = List.length header in
  List.iter
    (fun r ->
      if List.length r <> ncols then invalid_arg "Table.render: ragged row")
    rows;
  let widths = Array.make ncols 0 in
  let measure row = List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row in
  measure header;
  List.iter measure rows;
  let pad i c =
    let w = widths.(i) in
    match align with
    | Left -> Printf.sprintf "%-*s" w c
    | Right -> Printf.sprintf "%*s" w c
  in
  let line row = "| " ^ String.concat " | " (List.mapi pad row) ^ " |" in
  let sep =
    "|"
    ^ String.concat "|" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (line r);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* vodlint-disable print-in-lib — Table is the console emitter the bench
   and example binaries render paper tables with; stdout is its contract. *)
let print ?align ~header rows = print_string (render ?align ~header rows)
