(** Deterministic topology generators matching the node/link counts of the
    networks in the paper's evaluation (Sec. VII-A/E/F). Real AT&T and
    RocketFuel edge lists are proprietary / unavailable offline; DESIGN.md
    documents the substitution. *)

(** Zipf-like metro populations (exponent 0.8) with a seeded rank-to-node
    shuffle. *)
val zipf_populations : seed:int -> int -> float array

(** Ring + population-biased chords with exactly [target_edges] undirected
    edges. Raises [Invalid_argument] if [target_edges] is below [n] or
    above the complete-graph count. *)
val ring_plus_chords :
  name:string -> n:int -> target_edges:int -> seed:int -> Graph.t

(** The 55-VHO / 76-link IPTV backbone stand-in ([ring_plus_chords]
    seed 55). *)
val backbone55 : unit -> Graph.t

(** RocketFuel-scale stand-ins: Tiscali 49 nodes / 86 links (seed 49). *)
val tiscali : unit -> Graph.t

(** Sprint: 33 nodes / 69 links (seed 33). *)
val sprint : unit -> Graph.t

(** Ebone: 23 nodes / 38 links (seed 23). *)
val ebone : unit -> Graph.t

(** BFS tree over the same VHOs, rooted at the largest metro (Table IV). *)
val tree_of : Graph.t -> Graph.t

(** Full mesh over the same VHOs (Table IV). *)
val full_mesh_of : Graph.t -> Graph.t

(** Load a topology from a plain edge-list file ("u v" per line, two
    nonnegative node ids separated by spaces or tabs, [#] comments, no
    header); node count is max id + 1, every node has population 1, a
    self-loop or repeated edge is skipped. Raises [Invalid_argument]
    naming the line of a row that is not two integers or carries a
    negative id, or when the file has no edge; [Sys_error] on an
    unreadable file. *)
val load_edge_list : ?name:string -> path:string -> unit -> Graph.t

(** Indices of the [k] highest-population VHOs, ordered by decreasing
    population (used to map demand onto smaller networks, Sec. VII-F). *)
val top_population_nodes : Graph.t -> int -> int array
