(* The catalog's unit of placement. The paper maps all content to four
   length classes (5 min / 30 min / 1 h / 2 h stored as 100 MB / 500 MB /
   1 GB / 2 GB) streaming at 2 Mb/s SD (Sec. VII-A). *)

type size_class = Clip | Show | Movie | Long_movie

type kind =
  | Regular                                        (* back-catalog movie / show *)
  | Music_video
  | Episode of { series : int; episode : int }     (* TV series content *)
  | Blockbuster

type t = {
  id : int;
  size_class : size_class;
  kind : kind;
  release_day : int;   (* day the video enters the catalog; <= 0 means it
                          predates the trace *)
  base_weight : float; (* steady-state popularity weight (Zipf w/ cutoff) *)
}

let size_gb v =
  match v.size_class with
  | Clip -> 0.1
  | Show -> 0.5
  | Movie -> 1.0
  | Long_movie -> 2.0

let duration_s v =
  match v.size_class with
  | Clip -> 300.0
  | Show -> 1800.0
  | Movie -> 3600.0
  | Long_movie -> 7200.0

(* All content is standard definition at 2 Mb/s (Sec. VII-A). *)
let rate_mbps (_ : t) = 2.0
