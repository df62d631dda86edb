(* A request trace (see trace.mli): the simulator's, the demand
   estimator's and the analytics' common input, as a columnar store.
   Times are absolute seconds from trace start (day 0, 00:00). The three
   columns live in Bigarrays: 16 bytes per request, off the OCaml heap,
   nothing for the GC to scan.

   Ordering contract: every constructor sorts rows by time through an
   index permutation computed by [Array.sort] with [Float.compare] on
   the time column. [Array.sort]'s element moves are a function of the
   element count and the comparator outcomes alone, so a given sequence
   of rows always lands in the same order, tied times included. *)

module A1 = Bigarray.Array1

type t = {
  times : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
  vhos : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
  videos : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
  n_vhos : int;
  days : int;
}

let seconds_per_day = 86_400.0

let day_of_time time_s = int_of_float (time_s /. seconds_per_day)

let length t = A1.dim t.times

let time t i = A1.get t.times i

let vho t i = Int32.to_int (A1.get t.vhos i)

let video t i = Int32.to_int (A1.get t.videos i)

(* float64 + 2 x int32 = 16 bytes per row. *)
let resident_bytes t = 16 * length t

let alloc_times n = A1.create Bigarray.float64 Bigarray.c_layout n

let alloc_ids n = A1.create Bigarray.int32 Bigarray.c_layout n

(* The time test is written so that a NaN fails it. *)
let row_error ~n_vhos ~days ~time_s ~vho =
  let horizon = float_of_int days *. seconds_per_day in
  if vho < 0 || vho >= n_vhos then
    Some (Printf.sprintf "vho %d out of range [0, %d)" vho n_vhos)
  else if not (time_s >= 0.0 && time_s < horizon) then
    Some (Printf.sprintf "request time %.3f outside [0, %.0f) s" time_s horizon)
  else None

(* First row with time >= bound_s (binary search; the column is
   sorted). *)
let lower t bound_s =
  let n = length t in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if A1.get t.times mid < bound_s then go (mid + 1) hi else go lo mid
  in
  go 0 n

let between t ~t0_s ~t1_s = (lower t t0_s, lower t t1_s)

let sub t ~lo ~hi =
  if lo < 0 || hi < lo || hi > length t then
    invalid_arg "Trace.sub: range out of bounds";
  let n = hi - lo in
  {
    t with
    times = A1.sub t.times lo n;
    vhos = A1.sub t.vhos lo n;
    videos = A1.sub t.videos lo n;
  }

let iter_windows t ~window ~f =
  if window <= 0 then invalid_arg "Trace.iter_windows: window <= 0";
  let n = length t in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + window) in
    f ~lo:!lo ~hi;
    lo := hi
  done

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
    then invalid_arg "Trace.Builder.add_columns: n exceeds a column";
    grow b (b.len + n);
    for i = 0 to n - 1 do
      A1.set b.b_times (b.len + i) times.(i);
      A1.set b.b_vhos (b.len + i) (Int32.of_int vhos.(i));
      A1.set b.b_videos (b.len + i) (Int32.of_int videos.(i))
    done;
    b.len <- b.len + n

  let finish b =
    let n = b.len and times = b.b_times and vhos = b.b_vhos and videos = b.b_videos in
    for i = 0 to n - 1 do
      match
        row_error ~n_vhos:b.n_vhos ~days:b.days ~time_s:(A1.get times i)
          ~vho:(Int32.to_int (A1.get vhos i))
      with
      | Some e -> invalid_arg ("Trace: " ^ e)
      | None -> ()
    done;
    (* Sort row indices by time: index [i] carries row [i], so the
       comparator outcomes, and therefore the unstable sort's final
       order, depend on the rows alone. The comparator reads the column
       directly, so it allocates nothing. *)
    let perm = Array.init n (fun i -> i) in
    Array.sort (fun i j -> Float.compare (A1.get times i) (A1.get times j)) perm;
    let t =
      {
        times = alloc_times n;
        vhos = alloc_ids n;
        videos = alloc_ids n;
        n_vhos = b.n_vhos;
        days = b.days;
      }
    in
    Array.iteri
      (fun i src ->
        A1.set t.times i (A1.get times src);
        A1.set t.vhos i (A1.get vhos src);
        A1.set t.videos i (A1.get videos src))
      perm;
    t
end

let of_columns ~n_vhos ~days ~times ~vhos ~videos =
  let n = Array.length times in
  if Array.length vhos <> n || Array.length videos <> n then
    invalid_arg "Trace.of_columns: column lengths differ";
  let b = Builder.create ~capacity:n ~n_vhos ~days () in
  Builder.add_columns b ~times ~vhos ~videos ~n;
  Builder.finish b
