(* In-memory span recorder for the traced pass. The benchmark wraps each
   call it makes into a library layer (Solve.solve, Loop.play_soa, ...)
   in [record]; a span keeps its name, wall-clock start and end, and the
   span that was open when it started. Nothing is recorded unless a
   recorder is installed, so the untraced pass runs the same code with
   one pattern match per call. Spans are written out once, at exit. *)

type span = { id : int; parent : int; name : string; start_s : float; end_s : float }

type t = { mutable stack : int list; mutable rev_spans : span list }

let create () = { stack = []; rev_spans = [] }
let current : t option ref = ref None
let next_id = ref 0

let with_recorder t f =
  let saved = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := saved) f

let record name f =
  match !current with
  | None -> f ()
  | Some t ->
      let id = !next_id in
      incr next_id;
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.stack <- id :: t.stack;
      let start_s = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          t.stack <- List.tl t.stack;
          t.rev_spans <-
            { id; parent; name; start_s; end_s = Unix.gettimeofday () } :: t.rev_spans)
        f

let spans t = List.rev t.rev_spans
let duration s = s.end_s -. s.start_s

(* Total duration of the spans called [name]. *)
let total_s t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0.0 t.rev_spans

(* Per-name count, total and self time (duration minus the part covered
   by direct children), sorted by name. *)
let by_name all =
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent) in
      Hashtbl.replace child_s s.parent (prev +. duration s))
    all;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id) in
      let n, tot, slf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, tot +. duration s, slf +. self))
    all;
  Hashtbl.fold (fun name v l -> (name, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* [write path ~workload recorders ~per_layer] writes every span of the
   given recorders (times relative to the earliest start), the per-name
   totals with self times, and the per-layer metrics of the run. *)
let write path ~workload recorders ~per_layer =
  let all = List.concat_map spans recorders in
  let origin = List.fold_left (fun m s -> Float.min m s.start_s) Float.infinity all in
  let span_json s =
    Printf.sprintf
      "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %s, \"end_s\": %s}"
      s.id s.parent s.name
      (num (s.start_s -. origin))
      (num (s.end_s -. origin))
  in
  let name_json (name, (n, tot, slf)) =
    Printf.sprintf "%S: {\"count\": %d, \"total_s\": %s, \"self_s\": %s}" name n
      (num tot) (num slf)
  in
  let metric_json (name, v) = Printf.sprintf "%S: %s" name (num v) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"workload\": %S,\n\"spans\": [\n%s\n],\n\"by_name\": {\n%s\n},\n\"per_layer\": {\n%s\n}}\n"
        workload
        (String.concat ",\n" (List.map span_json all))
        (String.concat ",\n" (List.map name_json (by_name all)))
        (String.concat ",\n" (List.map metric_json per_layer)))
