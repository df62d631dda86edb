(* Trace import/export.

   A production deployment feeds the optimizer from real request logs; a
   CSV with one request per line is the interchange format:

     time_s,vho,video
     8123.5,12,4711

   [save_csv]/[load_csv] round-trip exactly, so operators can also export
   a synthetic trace, replay it elsewhere, or splice in their own. Both
   stream one line at a time against the columnar store, which is what
   lets traces too large to stage in records (the million-video tier)
   pass through. *)

let header = "time_s,vho,video"

let save_csv (trace : Trace.t) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header ^ "\n");
      for i = 0 to Trace.length trace - 1 do
        Printf.fprintf oc "%.3f,%d,%d\n" (Trace.time trace i) (Trace.vho trace i)
          (Trace.video trace i)
      done)

let fail ~lineno what =
  invalid_arg (Printf.sprintf "Trace_io.load_csv: %s on line %d" what lineno)

(* One record, checked against the trace shape and, when given, the
   catalog's video bound. Without the video check a stale or hand-edited
   CSV only blows up deep inside playout with an array-bounds exception;
   here every bad row is a line-numbered parse error. *)
let parse_line ~lineno ~n_videos ~n_vhos ~days line =
  match String.split_on_char ',' line with
  | [ t; vho; video ] -> (
      match (float_of_string_opt t, int_of_string_opt vho, int_of_string_opt video) with
      | Some time_s, Some vho, Some video ->
          (match n_videos with
          | Some n when video < 0 || video >= n ->
              fail ~lineno (Printf.sprintf "video id %d out of range [0, %d)" video n)
          | Some _ | None -> ());
          Option.iter (fail ~lineno) (Trace.row_error ~n_vhos ~days ~time_s ~vho);
          (time_s, vho, video)
      | _ -> fail ~lineno "bad record")
  | _ -> fail ~lineno "bad record"

let load_csv ?n_videos ~n_vhos ~days path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Trace.Builder.create ~n_vhos ~days () in
      let lineno = ref 0 in
      (try
         while true do
           incr lineno;
           let trimmed = String.trim (input_line ic) in
           if trimmed <> "" && not (!lineno = 1 && trimmed = header) then begin
             let time_s, vho, video =
               parse_line ~lineno:!lineno ~n_videos ~n_vhos ~days trimmed
             in
             Trace.Builder.add b ~time_s ~vho ~video
           end
         done
       with End_of_file -> ());
      let trace = Trace.Builder.finish b in
      Vod_obs.Obs.set_gauge "mem/trace_store_bytes"
        (float_of_int (Trace.resident_bytes trace));
      trace)
