(** The catalog's unit of placement. The paper maps all content to four
    length classes — 5 min / 30 min / 1 h / 2 h, stored as 100 MB / 500 MB /
    1 GB / 2 GB — streaming at 2 Mb/s SD (Sec. VII-A). *)

type size_class = Clip | Show | Movie | Long_movie

type kind =
  | Regular
  | Music_video
  | Episode of { series : int; episode : int }
  | Blockbuster

type t = {
  id : int;
  size_class : size_class;
  kind : kind;
  release_day : int;
      (** day index at which the video enters the catalog; [<= 0] means it
          predates the trace *)
  base_weight : float;  (** steady-state Zipf-with-cutoff popularity weight *)
}

(** Storage footprint in GB (paper's class mapping). *)
val size_gb : t -> float

(** Playback duration in seconds. *)
val duration_s : t -> float

(** Streaming rate; constant 2 Mb/s SD. *)
val rate_mbps : t -> float
