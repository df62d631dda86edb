(* A single VHO's dynamic cache (LRU, LFU, or LRFU) with stream locking.

   The paper's Sec. IV argument against plain caching hinges on two
   realities this implementation models: (1) a video being streamed must
   stay cached for its whole playback, so entries carry a [busy_until]
   horizon and cannot be evicted before it; (2) when every resident entry
   is busy, an incoming video is *not cachable* (Fig. 9's "no space"
   requests) and must be streamed remotely without caching.

   LRFU is the recency/frequency spectrum of Lee et al. (cited as [18] by
   the paper): each entry carries a combined-recency-frequency value
   C = sum over hits of 2^(-lambda * age); lambda -> 0 degenerates to LFU
   and lambda -> 1 to LRU. Ages are measured on the cache's logical access
   clock.

   Every resident entry sits on an intrusive doubly linked recency list,
   oldest to newest, closed into a ring by one sentinel per cache. [touch]
   and [insert] move an entry to the newest end, so the list is in
   [last_use] order (the clock ticks once per touch or insert, so
   [last_use] is unique within a cache). The LRU victim, the idle entry of
   least [last_use], is then the first idle entry walking from the oldest
   end: no scan of the whole cache per eviction. The list does not hold
   LFU or LRFU order, so those two policies still compare every resident
   entry per eviction (walking the same list); their minimum is unique,
   so the walk order does not change the victim. *)

type policy = Lru | Lfu | Lrfu of float

type entry = {
  video : int;
  size_gb : float;
  mutable last_use : int;     (* logical clock for LRU ordering *)
  mutable freq : int;         (* in-cache hit count for LFU *)
  mutable crf : float;        (* combined recency-frequency for LRFU *)
  mutable busy_until : float; (* latest stream-end among active plays *)
  mutable newer : entry;      (* recency ring: next more recent entry *)
  mutable older : entry;      (* recency ring: next less recent entry *)
}

(* Video ids are dense non-negative ints: hashing by identity spreads
   them over the buckets without a [caml_hash] call, and [Int.equal]
   replaces polymorphic equality. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (v : int) = v
end)

type t = {
  policy : policy;
  capacity_gb : float;
  mutable used_gb : float;
  mutable clock : int;
  entries : entry Tbl.t;  (* video -> entry *)
  (* Recency ring head: [ring.newer] is the oldest entry, [ring.older]
     the newest; an empty cache links the sentinel to itself. *)
  ring : entry;
  (* Side-band metric names, precomputed once so the hot path never
     allocates them (Obs calls are no-ops unless --metrics is on). *)
  m_hits : string;
  m_misses : string;
  m_inserts : string;
  m_evictions : string;
  m_stream_locked : string;
  m_too_big : string;
}

module Obs = Vod_obs.Obs

let policy_tag = function Lru -> "lru" | Lfu -> "lfu" | Lrfu _ -> "lrfu"

let sentinel () =
  let rec s =
    {
      video = -1;
      size_gb = 0.0;
      last_use = 0;
      freq = 0;
      crf = 0.0;
      busy_until = infinity;
      newer = s;
      older = s;
    }
  in
  s

let create ~policy ~capacity_gb =
  if capacity_gb < 0.0 then invalid_arg "Cache.create: negative capacity";
  (match policy with
  | Lrfu lambda when lambda <= 0.0 || lambda > 1.0 ->
      invalid_arg "Cache.create: LRFU lambda must be in (0, 1]"
  | Lrfu _ | Lru | Lfu -> ());
  let p = "cache/" ^ policy_tag policy in
  {
    policy;
    capacity_gb;
    used_gb = 0.0;
    clock = 0;
    entries = Tbl.create 64;
    ring = sentinel ();
    m_hits = p ^ "/hits";
    m_misses = p ^ "/misses";
    m_inserts = p ^ "/inserts";
    m_evictions = p ^ "/evictions";
    m_stream_locked = p ^ "/stream_locked";
    m_too_big = p ^ "/too_big";
  }

let unlink e =
  e.older.newer <- e.newer;
  e.newer.older <- e.older

let push_newest t e =
  let last = t.ring.older in
  e.older <- last;
  e.newer <- t.ring;
  last.newer <- e;
  t.ring.older <- e

(* Decayed combined-recency-frequency value of an entry as of the current
   clock. *)
let crf_now t e ~lambda =
  e.crf *. (2.0 ** (-.lambda *. float_of_int (t.clock - e.last_use)))

let used_gb t = t.used_gb

let size t = Tbl.length t.entries

let mem t video = Tbl.mem t.entries video

(* Record a cache hit: bump recency/frequency and extend the stream lock
   to [busy_until]. *)
let touch t video ~busy_until =
  match Tbl.find_opt t.entries video with
  | None ->
      Obs.incr t.m_misses;
      false
  | Some e ->
      Obs.incr t.m_hits;
      t.clock <- t.clock + 1;
      (match t.policy with
      | Lrfu lambda -> e.crf <- 1.0 +. crf_now t e ~lambda
      | Lru | Lfu -> ());
      e.last_use <- t.clock;
      e.freq <- e.freq + 1;
      if busy_until > e.busy_until then e.busy_until <- busy_until;
      unlink e;
      push_newest t e;
      true

(* LFU = least-frequent first, recency as tie-break; LRFU = least decayed
   CRF first, recency as tie-break. *)
let evicts_before t e b =
  match t.policy with
  | Lru -> e.last_use < b.last_use
  | Lfu -> e.freq < b.freq || (e.freq = b.freq && e.last_use < b.last_use)
  | Lrfu lambda ->
      let ce = crf_now t e ~lambda and cb = crf_now t b ~lambda in
      ce < cb || (ce = cb && e.last_use < b.last_use)

(* The first entry idle at [now] from [e] towards the newest end, or the
   sentinel. *)
let rec first_idle t e ~now =
  if e == t.ring || e.busy_until <= now then e else first_idle t e.newer ~now

(* The policy's preferred idle entry among [e] and every newer one, [best]
   so far (the sentinel: none yet). *)
let rec preferred_idle t e best ~now =
  if e == t.ring then best
  else
    let best =
      if e.busy_until <= now && (best == t.ring || evicts_before t e best) then e
      else best
    in
    preferred_idle t e.newer best ~now

(* Eviction choice among the entries idle at [now]; the sentinel when
   every resident entry is busy (or the cache is empty). *)
let victim t ~now =
  match t.policy with
  | Lru -> first_idle t t.ring.newer ~now
  | Lfu | Lrfu _ -> preferred_idle t t.ring.newer t.ring ~now

(* Insert a video, evicting idle victims as needed. Returns
   [(inserted, evicted)]: [inserted] is false when the video cannot be
   cached (too big for the cache, or all resident entries are busy
   streaming); [evicted] lists the videos removed along the way — which
   stay removed even on a failed admission, mirroring a real cache that
   frees space before discovering the admission fails. *)
let insert t video ~size_gb ~now ~busy_until =
  if mem t video then (true, [])
  else if size_gb > t.capacity_gb then begin
    Obs.incr t.m_too_big;
    (false, [])
  end
  else begin
    let evicted = ref [] in
    let ok = ref true in
    while !ok && t.used_gb +. size_gb > t.capacity_gb do
      let e = victim t ~now in
      if e == t.ring then begin
        (* Residents exist but every one is inside a stream lock:
           the paper's "no space" outcome (Fig. 9). *)
        Obs.incr t.m_stream_locked;
        ok := false
      end
      else begin
        Tbl.remove t.entries e.video;
        unlink e;
        t.used_gb <- t.used_gb -. e.size_gb;
        evicted := e.video :: !evicted
      end
    done;
    (match !evicted with
    | [] -> ()
    | l -> Obs.incr ~by:(List.length l) t.m_evictions);
    if not !ok then (false, !evicted)
    else begin
      t.clock <- t.clock + 1;
      let e =
        {
          video;
          size_gb;
          last_use = t.clock;
          freq = 1;
          crf = 1.0;
          busy_until;
          newer = t.ring;
          older = t.ring;
        }
      in
      Tbl.replace t.entries video e;
      push_newest t e;
      t.used_gb <- t.used_gb +. size_gb;
      Obs.incr t.m_inserts;
      (true, !evicted)
    end
  end
