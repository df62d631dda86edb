(** Fixed shortest-path routing between every pair of VHOs (paper Sec. III:
    a predetermined path [P_ij] per ordered pair; only the set of links on
    the path matters to the MIP, and [P_ii] is empty). *)

type t

(** Precompute all-pairs shortest paths by hop count with deterministic
    tie-breaking. Raises [Invalid_argument] if the graph is disconnected. *)
val compute : Graph.t -> t

(** Same computation restricted to the links for which
    [link_up.(lid) = true] (fault scenarios, lib/resil). Pairs with no
    surviving path get hop count [max_int] and an empty link array
    instead of raising. Raises [Invalid_argument] if [link_up] does not
    have one entry per directed link. *)
val compute_masked : Graph.t -> link_up:bool array -> t

(** [reachable t ~src ~dst] is false only for pairs severed in a
    [compute_masked] result; always true on a [compute] result. *)
val reachable : t -> src:int -> dst:int -> bool

(** Hop count |P_ij|; 0 when [src = dst]; [max_int] when unreachable
    under a mask. *)
val hops : t -> src:int -> dst:int -> int

(** Directed link ids on the fixed path from [src] to [dst], in order;
    the empty array when [src = dst]. *)
val path_links : t -> src:int -> dst:int -> int array

(** The paths of {!path_links} laid out destination-major, computed once
    with the paths: for each destination [dst], the paths from sources
    [0 .. n-1] into [dst] end to end in [link_ids]. The path from [src]
    into [dst] is the slice of [link_ids] from [off.(dst * n + src)] to
    [off.(dst * n + src + 1)] (exclusive), in path order; it is empty
    when [src = dst] or the pair is unreachable, and its length is
    {!hops} on a reachable pair. *)
type routes = private {
  n : int;  (** VHO count *)
  off : int array;  (** [n * n + 1] slice offsets, nondecreasing *)
  link_ids : int array;  (** every path, destination-major *)
}

(** The route table of [t]. *)
val routes : t -> routes

(** Maximum hop count over all ordered pairs. *)
val diameter : t -> int
