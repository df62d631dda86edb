(* Placement import/export.

   The operational hand-off from the optimizer to the content-distribution
   system is the placement itself: which videos to pin at which VHOs. The
   CSV carries one (video, vho) pair per line plus optional route records,
   so a placement can be computed offline and pushed to delivery, or an
   existing deployment's placement can be loaded and evaluated in the
   simulator. *)

let header = "kind,video,vho,server"

let save_csv (sol : Solution.t) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header ^ "\n");
      Array.iteri
        (fun video vhos ->
          Array.iter (fun vho -> Printf.fprintf oc "store,%d,%d,\n" video vho) vhos)
        sol.Solution.stored;
      (* Routes emit in sorted client order so the exported CSV is
         byte-identical across runs (Hashtbl.iter order depends on
         insertion history). *)
      Array.iteri
        (fun video routes ->
          List.iter
            (fun client ->
              match Hashtbl.find_opt routes client with
              | Some server ->
                  Printf.fprintf oc "route,%d,%d,%d\n" video client server
              | None -> ())
            (Vod_util.Stats_acc.sorted_keys Int.compare routes))
        sol.Solution.routes)

let load_csv ~n_vhos ~n_videos path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let stored = Array.make n_videos [] in
      let routes = Array.init n_videos (fun _ -> Hashtbl.create 4) in
      let lineno = ref 0 in
      let fail () =
        invalid_arg (Printf.sprintf "Solution_io.load_csv: bad record on line %d" !lineno)
      in
      let check_vho v = if v < 0 || v >= n_vhos then fail () in
      let check_video v = if v < 0 || v >= n_videos then fail () in
      (try
         while true do
           incr lineno;
           let line = String.trim (input_line ic) in
           if line <> "" && not (!lineno = 1 && line = header) then begin
             match String.split_on_char ',' line with
             | [ "store"; video; vho; "" ] -> (
                 try
                   let video = int_of_string video and vho = int_of_string vho in
                   check_video video;
                   check_vho vho;
                   if not (List.mem vho stored.(video)) then
                     stored.(video) <- vho :: stored.(video)
                 with Failure _ -> fail ())
             | [ "route"; video; client; server ] -> (
                 try
                   let video = int_of_string video in
                   let client = int_of_string client in
                   let server = int_of_string server in
                   check_video video;
                   check_vho client;
                   check_vho server;
                   Hashtbl.replace routes.(video) client server
                 with Failure _ -> fail ())
             | _ -> fail ()
           end
         done
       with End_of_file -> ());
      let stored =
        Array.map
          (fun l ->
            let arr = Array.of_list l in
            Array.sort Int.compare arr;
            arr)
          stored
      in
      Array.iteri
        (fun video vhos ->
          if Array.length vhos = 0 then
            invalid_arg
              (Printf.sprintf "Solution_io.load_csv: video %d has no copy" video))
        stored;
      {
        Solution.n_vhos;
        n_videos;
        stored;
        routes;
        objective = nan;
        lower_bound = nan;
        max_violation = nan;
        passes = 0;
      })
