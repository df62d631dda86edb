(* Compact struct-of-arrays request store (see trace_soa.mli). The three
   columns live in Bigarrays: 16 bytes per request, off the OCaml heap,
   nothing for the GC to scan — the storage shape that carries
   million-video / multi-million-request traces where an array of boxed
   Trace.request records (five words each, plus header churn) does not.

   Ordering contract: every constructor sorts rows by time through an
   index permutation computed by [Array.sort] with [Float.compare] on
   the time column. [Array.sort]'s element moves are a function of the
   element count and the comparator outcomes alone, so this permutation
   is exactly the one [Trace.create] applies to the same rows — which is
   what makes the SoA and array-backed serving paths byte-identical. *)

module A1 = Bigarray.Array1

type t = {
  times : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
  vhos : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
  videos : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
  n_vhos : int;
  days : int;
}

let length t = A1.dim t.times

let time t i = A1.get t.times i

let vho t i = Int32.to_int (A1.get t.vhos i)

let video t i = Int32.to_int (A1.get t.videos i)

(* float64 + 2 x int32 = 16 bytes per row. *)
let resident_bytes t = 16 * length t

let alloc_times n = A1.create Bigarray.float64 Bigarray.c_layout n

let alloc_ids n = A1.create Bigarray.int32 Bigarray.c_layout n

(* The Trace.create permutation: sort row indices by time with the same
   comparator; index [i] carries row [i], so comparator outcomes — and
   therefore the unstable sort's final order — coincide with sorting the
   boxed records themselves. *)
let sort_perm ~n ~time =
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare (time i) (time j)) idx;
  idx

let validate ~n_vhos ~days ~n ~time ~vho =
  let horizon = float_of_int days *. Trace.seconds_per_day in
  for i = 0 to n - 1 do
    let v = vho i in
    if v < 0 || v >= n_vhos then
      invalid_arg "Trace_soa: vho out of range";
    let ts = time i in
    if ts < 0.0 || ts >= horizon then
      invalid_arg "Trace_soa: request time outside trace horizon"
  done

(* Build the store from row accessors and a row permutation. *)
let build ~n_vhos ~days ~n ~time ~vho ~video ~perm =
  let times = alloc_times n and vhos = alloc_ids n and videos = alloc_ids n in
  for i = 0 to n - 1 do
    let src = perm.(i) in
    A1.set times i (time src);
    A1.set vhos i (Int32.of_int (vho src));
    A1.set videos i (Int32.of_int (video src))
  done;
  { times; vhos; videos; n_vhos; days }

let of_columns ~n_vhos ~days ~times ~vhos ~videos =
  let n = Array.length times in
  if Array.length vhos <> n || Array.length videos <> n then
    invalid_arg "Trace_soa.of_columns: column lengths differ";
  let time i = times.(i) and vho i = vhos.(i) and video i = videos.(i) in
  validate ~n_vhos ~days ~n ~time ~vho;
  build ~n_vhos ~days ~n ~time ~vho ~video ~perm:(sort_perm ~n ~time)

(* A Trace.t is already sorted and validated: identity permutation. *)
let of_trace (tr : Trace.t) =
  let n = Array.length tr.Trace.requests in
  let times = alloc_times n and vhos = alloc_ids n and videos = alloc_ids n in
  for i = 0 to n - 1 do
    let r = tr.Trace.requests.(i) in
    A1.set times i r.Trace.time_s;
    A1.set vhos i (Int32.of_int r.Trace.vho);
    A1.set videos i (Int32.of_int r.Trace.video)
  done;
  { times; vhos; videos; n_vhos = tr.Trace.n_vhos; days = tr.Trace.days }

(* Rows are already in Trace.create's order, so construct the record
   directly rather than re-sorting: with tied times an unstable re-sort
   could permute equal rows and break the byte-for-byte round-trip. *)
let to_trace t =
  let n = length t in
  let requests =
    Array.init n (fun i ->
        { Trace.time_s = time t i; vho = vho t i; video = video t i })
  in
  { Trace.requests; n_vhos = t.n_vhos; days = t.days }

(* First row with time >= bound (binary search; the column is sorted). *)
let lower t bound =
  let n = length t in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if A1.get t.times mid < bound then go (mid + 1) hi else go lo mid
  in
  go 0 n

let between t ~t0_s ~t1_s = (lower t t0_s, lower t t1_s)

let iter_windows t ~window ~f =
  if window <= 0 then invalid_arg "Trace_soa.iter_windows: window <= 0";
  let n = length t in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + window) in
    f ~lo:!lo ~hi;
    lo := hi
  done

let window_requests t ~lo ~hi =
  if lo < 0 || hi < lo || hi > length t then
    invalid_arg "Trace_soa.window_requests: range out of bounds";
  Array.init (hi - lo) (fun k ->
      let i = lo + k in
      { Trace.time_s = time t i; vho = vho t i; video = video t i })

let counts_per_video t ~n_videos =
  let c = Array.make n_videos 0 in
  for i = 0 to length t - 1 do
    let v = video t i in
    c.(v) <- c.(v) + 1
  done;
  c

module Builder = struct
  type store = t

  type t = {
    mutable b_times : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
    mutable b_vhos : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
    mutable b_videos : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
    mutable len : int;
    n_vhos : int;
    days : int;
  }

  let create ?(capacity = 1024) ~n_vhos ~days () =
    let capacity = max 1 capacity in
    {
      b_times = alloc_times capacity;
      b_vhos = alloc_ids capacity;
      b_videos = alloc_ids capacity;
      len = 0;
      n_vhos;
      days;
    }

  let length b = b.len

  let grow b needed =
    let cap = A1.dim b.b_times in
    if needed > cap then begin
      let cap' = max needed (2 * cap) in
      let times = alloc_times cap' and vhos = alloc_ids cap' and videos = alloc_ids cap' in
      A1.blit (A1.sub b.b_times 0 b.len) (A1.sub times 0 b.len);
      A1.blit (A1.sub b.b_vhos 0 b.len) (A1.sub vhos 0 b.len);
      A1.blit (A1.sub b.b_videos 0 b.len) (A1.sub videos 0 b.len);
      b.b_times <- times;
      b.b_vhos <- vhos;
      b.b_videos <- videos
    end

  let add b ~time_s ~vho ~video =
    grow b (b.len + 1);
    A1.set b.b_times b.len time_s;
    A1.set b.b_vhos b.len (Int32.of_int vho);
    A1.set b.b_videos b.len (Int32.of_int video);
    b.len <- b.len + 1

  let add_columns b ~times ~vhos ~videos ~n =
    if n > Array.length times || n > Array.length vhos || n > Array.length videos
    then invalid_arg "Trace_soa.Builder.add_columns: n exceeds a column";
    grow b (b.len + n);
    for i = 0 to n - 1 do
      A1.set b.b_times (b.len + i) times.(i);
      A1.set b.b_vhos (b.len + i) (Int32.of_int vhos.(i));
      A1.set b.b_videos (b.len + i) (Int32.of_int videos.(i))
    done;
    b.len <- b.len + n

  let finish b =
    let n = b.len in
    let time i = A1.get b.b_times i in
    let vho i = Int32.to_int (A1.get b.b_vhos i) in
    let video i = Int32.to_int (A1.get b.b_videos i) in
    validate ~n_vhos:b.n_vhos ~days:b.days ~n ~time ~vho;
    build ~n_vhos:b.n_vhos ~days:b.days ~n ~time ~vho ~video
      ~perm:(sort_perm ~n ~time)
end
