(* Global replica directory: which VHOs currently hold a copy of each
   video (pinned or cached). This is the paper's *Oracle* (Sec. VII-A):
   the caching baselines are always told the nearest location with a copy,
   giving them their best case.

   Each video's holders sit packed at the front of its own int buffer, in
   insertion order, with the live count beside it. Every operation walks
   only that video's live cells and allocates nothing, except an [add]
   that outgrows the buffer (which then doubles). *)

type t = {
  slots : int array array;  (* per video: its holders, then spare cells *)
  counts : int array;       (* per video: live holders at the front of [slots] *)
}

let create ~n_videos =
  { slots = Array.make n_videos [||]; counts = Array.make n_videos 0 }

(* Index of [vho] among the first [n] cells of [slots] from [i], or -1. *)
let rec find slots n vho i =
  if i >= n then -1 else if slots.(i) = vho then i else find slots n vho (i + 1)

let position t ~video ~vho = find t.slots.(video) t.counts.(video) vho 0

let holds t ~video ~vho = position t ~video ~vho >= 0

let add t ~video ~vho =
  if not (holds t ~video ~vho) then begin
    let n = t.counts.(video) in
    if n = Array.length t.slots.(video) then begin
      let grown = Array.make (if n = 0 then 2 else 2 * n) (-1) in
      Array.blit t.slots.(video) 0 grown 0 n;
      t.slots.(video) <- grown
    end;
    t.slots.(video).(n) <- vho;
    t.counts.(video) <- n + 1
  end

(* Close the gap in place, so the survivors keep their order. *)
let remove t ~video ~vho =
  let i = position t ~video ~vho in
  if i >= 0 then begin
    let n = t.counts.(video) in
    Array.blit t.slots.(video) (i + 1) t.slots.(video) i (n - i - 1);
    t.counts.(video) <- n - 1
  end

let holders t ~video = t.slots.(video)

let count t ~video = t.counts.(video)

(* Nearest holder by hop count under the fixed routing; -1 when the
   video has no copy anywhere. Ties on hop count break to the lowest VHO
   id, so the result is independent of the (insertion-ordered) holder
   list — the failover router in lib/resil inherits this ordering. The
   walk carries the best holder and its hops as two ints: nothing is
   allocated per call. *)
let rec nearest_in paths slots n ~vho best best_h i =
  if i >= n then best
  else
    let s = slots.(i) in
    let h = Vod_topology.Paths.hops paths ~src:s ~dst:vho in
    if best >= 0 && (best_h < h || (best_h = h && best < s)) then
      nearest_in paths slots n ~vho best best_h (i + 1)
    else nearest_in paths slots n ~vho s h (i + 1)

let nearest t (paths : Vod_topology.Paths.t) ~video ~vho =
  nearest_in paths t.slots.(video) t.counts.(video) ~vho (-1) 0 0
