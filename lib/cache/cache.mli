(** A single VHO's dynamic cache (LRU, LFU or LRFU) with stream locking: a
    video being streamed cannot be evicted until playback ends, and when
    every resident entry is busy an incoming video is not cachable — the
    two effects behind the paper's Fig. 9.

    [Lrfu lambda] is the recency/frequency spectrum of Lee et al. (the
    paper's ref. [18]): lambda close to 0 behaves like LFU, lambda = 1
    like LRU.

    Costs: lookups ({!mem}, {!touch}) are one int-keyed hash probe.
    Resident entries sit on a recency list in last-use order, so an LRU
    eviction walks from the least recent end to the first idle entry:
    constant work unless the oldest entries are inside stream locks, and
    the whole list only when every entry is busy. LFU and LRFU evictions
    compare every resident entry, because the list does not hold their
    order. *)

type policy = Lru | Lfu | Lrfu of float

type t

(** Raises [Invalid_argument] on negative capacity or an LRFU lambda
    outside (0, 1]. Zero capacity is a valid always-miss cache. *)
val create : policy:policy -> capacity_gb:float -> t

(** Bytes currently resident (GB). *)
val used_gb : t -> float

(** Number of resident videos. *)
val size : t -> int

val mem : t -> int -> bool

(** Record a hit: bump recency/frequency, extend the stream lock to
    [busy_until]. Returns false on miss. O(1). *)
val touch : t -> int -> busy_until:float -> bool

(** [insert t video ~size_gb ~now ~busy_until] = [(inserted, evicted)].
    Evicts idle entries by policy as needed; fails (inserted = false) when
    the video exceeds capacity or all resident entries are busy. Evictions
    performed before a failed admission stay evicted. Each LRU eviction
    costs the stream-locked entries it skips; each LFU or LRFU eviction
    costs the number of resident entries. *)
val insert :
  t -> int -> size_gb:float -> now:float -> busy_until:float -> bool * int list
