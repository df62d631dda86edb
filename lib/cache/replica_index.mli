(** Global replica directory — the paper's "Oracle" that tells every
    scheme the nearest location currently holding a copy (Sec. VII-A).

    Each video's holders are packed at the front of a per-video buffer.
    Every operation costs O(holders of that video) and allocates
    nothing, except an {!add} that outgrows the buffer. *)

type t

val create : n_videos:int -> t

(** Register a holder (idempotent). *)
val add : t -> video:int -> vho:int -> unit

(** Remove a holder (no-op if absent); the others keep their order. *)
val remove : t -> video:int -> vho:int -> unit

(** The video's holder buffer, not a copy: its first {!count} cells are
    the current holders, unsorted, and the index rewrites it on the next
    {!add} or {!remove}. *)
val holders : t -> video:int -> int array

(** Number of current holders of a video. *)
val count : t -> video:int -> int

val holds : t -> video:int -> vho:int -> bool

(** Nearest holder by hop count; [-1] if the video has no copy.
    Ties on hop count break deterministically to the lowest VHO id,
    independent of holder insertion order. *)
val nearest : t -> Vod_topology.Paths.t -> video:int -> vho:int -> int
