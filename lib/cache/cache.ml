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
   clock. *)

type policy = Lru | Lfu | Lrfu of float

type entry = {
  size_gb : float;
  mutable last_use : int;     (* logical clock for LRU ordering *)
  mutable freq : int;         (* in-cache hit count for LFU *)
  mutable crf : float;        (* combined recency-frequency for LRFU *)
  mutable busy_until : float; (* latest stream-end among active plays *)
}

type t = {
  policy : policy;
  capacity_gb : float;
  mutable used_gb : float;
  mutable clock : int;
  entries : (int, entry) Hashtbl.t;  (* video -> entry *)
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
    entries = Hashtbl.create 64;
    m_hits = p ^ "/hits";
    m_misses = p ^ "/misses";
    m_inserts = p ^ "/inserts";
    m_evictions = p ^ "/evictions";
    m_stream_locked = p ^ "/stream_locked";
    m_too_big = p ^ "/too_big";
  }

(* Decayed combined-recency-frequency value of an entry as of the current
   clock. *)
let crf_now t e ~lambda =
  e.crf *. (2.0 ** (-.lambda *. float_of_int (t.clock - e.last_use)))

let used_gb t = t.used_gb

let size t = Hashtbl.length t.entries

let mem t video = Hashtbl.mem t.entries video

(* Record a cache hit: bump recency/frequency and extend the stream lock
   to [busy_until]. *)
let touch t video ~busy_until =
  match Hashtbl.find_opt t.entries video with
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
      true

(* Eviction preference: LRU = least-recent first; LFU = least-frequent
   first, recency as tie-break. Only entries idle at [now] are
   candidates. *)
let victim t ~now =
  let best = ref None in
  Hashtbl.iter
    (fun video e ->
      if e.busy_until <= now then
        let better =
          match !best with
          | None -> true
          | Some (_, b) -> (
              match t.policy with
              | Lru -> e.last_use < b.last_use
              | Lfu -> e.freq < b.freq || (e.freq = b.freq && e.last_use < b.last_use)
              | Lrfu lambda ->
                  let ce = crf_now t e ~lambda and cb = crf_now t b ~lambda in
                  ce < cb || (ce = cb && e.last_use < b.last_use))
        in
        if better then best := Some (video, e))
    t.entries;
  Option.map fst !best

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
      match victim t ~now with
      | None ->
          (* Residents exist but every one is inside a stream lock:
             the paper's "no space" outcome (Fig. 9). *)
          Obs.incr t.m_stream_locked;
          ok := false
      | Some v -> (
          (* [victim] only returns keys it just saw in [t.entries], and
             nothing removes entries between that scan and this lookup,
             so a miss here is a broken-invariant bug — not a
             recoverable condition. Keep the eviction total anyway. *)
          match Hashtbl.find_opt t.entries v with
          | None -> ok := false
          | Some e ->
              Hashtbl.remove t.entries v;
              t.used_gb <- t.used_gb -. e.size_gb;
              evicted := v :: !evicted)
    done;
    (match !evicted with
    | [] -> ()
    | l -> Obs.incr ~by:(List.length l) t.m_evictions);
    if not !ok then (false, !evicted)
    else begin
      t.clock <- t.clock + 1;
      Hashtbl.replace t.entries video
        { size_gb; last_use = t.clock; freq = 1; crf = 1.0; busy_until };
      t.used_gb <- t.used_gb +. size_gb;
      Obs.incr t.m_inserts;
      (true, !evicted)
    end
  end
