(* Residual-bandwidth tracking at stream granularity. Each admitted
   stream reserves its bitrate on every link of its path until its end
   time; a binary min-heap of expiries releases the bandwidth as the
   playout clock advances. With no finite capacities the tracker is a
   no-op fast path, which is what makes the fault-free faulted playout
   byte-identical to direct serving.

   Saturation accounting: a link is saturated while its load is at or
   above [saturation_frac] of its capacity; total saturated link-seconds
   are accumulated at state transitions and closed out by [finish]. *)

type expiry = {
  until_s : float;
  link : int;
  rate : float;
}

type t = {
  capacity_mbps : float array;  (* per directed link; infinity = unbounded *)
  load : float array;           (* reserved Mb/s per link *)
  sat_since : float array;      (* -1.0 when not saturated *)
  mutable sat_total_s : float;
  mutable heap : expiry array;  (* binary min-heap on until_s *)
  mutable heap_len : int;
  unbounded : bool;             (* no finite capacity anywhere *)
}

let saturation_frac = 0.95

let create ~capacity_mbps =
  Array.iter
    (fun c ->
      if Float.is_nan c || c <= 0.0 then
        invalid_arg "Capacity.create: capacities must be positive")
    capacity_mbps;
  let n = Array.length capacity_mbps in
  {
    capacity_mbps = Array.copy capacity_mbps;
    load = Array.make n 0.0;
    sat_since = Array.make n (-1.0);
    sat_total_s = 0.0;
    heap = Array.make 64 { until_s = 0.0; link = 0; rate = 0.0 };
    heap_len = 0;
    unbounded = Array.for_all (fun c -> c = Float.infinity) capacity_mbps;
  }

let unbounded t = t.unbounded

(* ---------- heap ---------- *)

let heap_push t e =
  if t.heap_len = Array.length t.heap then begin
    let bigger =
      Array.make (2 * Array.length t.heap) { until_s = 0.0; link = 0; rate = 0.0 }
    in
    Array.blit t.heap 0 bigger 0 t.heap_len;
    t.heap <- bigger
  end;
  let i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  t.heap.(!i) <- e;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if Float.compare t.heap.(!i).until_s t.heap.(parent).until_s < 0 then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let heap_pop t =
  let top = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  t.heap.(0) <- t.heap.(t.heap_len);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.heap_len && Float.compare t.heap.(l).until_s t.heap.(!smallest).until_s < 0
    then smallest := l;
    if r < t.heap_len && Float.compare t.heap.(r).until_s t.heap.(!smallest).until_s < 0
    then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  top

(* ---------- saturation bookkeeping ---------- *)

let saturated t link = t.load.(link) >= saturation_frac *. t.capacity_mbps.(link)

let update_saturation t ~now_s link =
  if t.capacity_mbps.(link) < Float.infinity then begin
    let sat = saturated t link in
    if sat && t.sat_since.(link) < 0.0 then t.sat_since.(link) <- now_s
    else if (not sat) && t.sat_since.(link) >= 0.0 then begin
      t.sat_total_s <-
        t.sat_total_s +. Float.max 0.0 (now_s -. t.sat_since.(link));
      t.sat_since.(link) <- -1.0
    end
  end

(* ---------- public ops ---------- *)

(* Release every reservation that ended at or before [now]. *)
let expire t ~now =
  if not t.unbounded then
    while t.heap_len > 0 && t.heap.(0).until_s <= now do
      let e = heap_pop t in
      t.load.(e.link) <- Float.max 0.0 (t.load.(e.link) -. e.rate);
      (* The bandwidth came back at the stream's end time, not at [now]. *)
      update_saturation t ~now_s:e.until_s e.link
    done

let eps = 1e-9

(* Tail-recursive rather than [Array.for_all]: the lambda would be a
   fresh closure on every admission check, once per request in the
   resil playout loop (alloc-in-hot). *)
let rec links_fit t ~links ~rate_mbps i =
  i >= Array.length links
  ||
  let l = links.(i) in
  t.load.(l) +. rate_mbps <= t.capacity_mbps.(l) +. eps
  && links_fit t ~links ~rate_mbps (i + 1)

let fits t ~links ~rate_mbps =
  t.unbounded || links_fit t ~links ~rate_mbps 0

let reserve t ~links ~rate_mbps ~until_s ~now =
  if not t.unbounded then
    (* Explicit loop for the same reason as [links_fit]: no per-call
       closure on the admission path. *)
    for i = 0 to Array.length links - 1 do
      let l = links.(i) in
      t.load.(l) <- t.load.(l) +. rate_mbps;
      heap_push t { until_s; link = l; rate = rate_mbps };
      update_saturation t ~now_s:now l
    done

(* Close any still-open saturation interval at the end of the playout. *)
let finish t ~now =
  Array.iteri
    (fun l since ->
      if since >= 0.0 then begin
        t.sat_total_s <- t.sat_total_s +. Float.max 0.0 (now -. since);
        t.sat_since.(l) <- -1.0
      end)
    t.sat_since

let saturated_seconds t = t.sat_total_s

let load t link = t.load.(link)
