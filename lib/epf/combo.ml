(* One block's convex combination of oracle points, stored column-wise.

   A column is one oracle point with its weight. The columns' objectives,
   weights and payloads sit in three arrays, and their row usages end to
   end in one rows/vals arena, column c's usage being the slice
   [off.(c), off.(c + 1)). Beside them the block keeps its aggregate usage
   sum_c w_c x usage_c as of the last [step] or [recompute], which the
   engine's line search and rounding read. Every update writes these
   arrays in place, through [Sparse.merge] on slices; the arrays are
   reallocated only to grow. The columns are kept in the order of a
   (point, weight) list whose head is the newest point, and every sum
   runs in that order, which makes the arithmetic bit-identical to such
   a list's (test/test_epf.ml keeps the list code as the reference):

   - a step puts the new column first, then the old ones in order;
   - a step keeps the columns of weight above [min_weight]; when more
     than [max_columns] remain, a stable sort by decreasing weight sets
     their order and the first [max_columns] stay;
   - the kept weights are summed in that order and divided by the sum;
     when no weight passes (the sum is not positive), every column stays
     with its unnormalized weight;
   - [recompute] folds the columns' usages and objectives in column
     order;
   - [heaviest] takes the heaviest column, the first on ties.

   The combination is the hot state of an EPF pass: its loops are plain
   loops over the arrays, for the same reason as [Sparse]'s. *)

type 'a point = {
  obj : float;         (* objective contribution c^k z^k *)
  usage : Sparse.t;    (* coupling-row footprint A^k z^k *)
  data : 'a;           (* opaque payload (e.g. the UFL solution) *)
}

type 'a t = {
  mutable n : int;
  mutable obj : float array;
  mutable weight : float array;
  mutable data : 'a array;
  mutable off : int array;
  mutable rows : int array;
  mutable vals : float array;
  mutable agg_n : int;
  mutable agg_rows : int array;
  mutable agg_vals : float array;
}

type 'a work = {
  mutable pick : int array;
  mutable wt : float array;
  mutable s_obj : float array;
  mutable s_data : 'a array;
  mutable s_off : int array;
  mutable s_rows : int array;
  mutable s_vals : float array;
  mutable a_rows : int array;
  mutable a_vals : float array;
  mutable b_rows : int array;
  mutable b_vals : float array;
  mutable d_rows : int array;
  mutable d_vals : float array;
}

(* Drop negligible-weight columns and cap the combination size (keeping
   the heaviest); renormalizing keeps the iterate a convex combination of
   block points, i.e. inside the block polytope. Without the cap, small
   line-search steps would grow combinations by one column per pass
   forever. *)
let max_columns = 20
let min_weight = 2e-3

let work () =
  {
    pick = [||];
    wt = [||];
    s_obj = [||];
    s_data = [||];
    s_off = [||];
    s_rows = [||];
    s_vals = [||];
    a_rows = [||];
    a_vals = [||];
    b_rows = [||];
    b_vals = [||];
    d_rows = [||];
    d_vals = [||];
  }

let of_list = function
  | [] -> invalid_arg "Combo.of_list: no column"
  | l ->
      let cols = Array.of_list l in
      let n = Array.length cols in
      let off = Array.make (n + 1) 0 in
      Array.iteri
        (fun q ((pt : _ point), _) -> off.(q + 1) <- off.(q) + Sparse.length pt.usage)
        cols;
      let rows = Array.make off.(n) 0 and vals = Array.create_float off.(n) in
      Array.iteri
        (fun q ((pt : _ point), _) ->
          let u = pt.usage in
          Array.blit u.Sparse.rows 0 rows off.(q) (Sparse.length u);
          Array.blit u.Sparse.vals 0 vals off.(q) (Sparse.length u))
        cols;
      {
        n;
        obj = Array.map (fun ((pt : _ point), _) -> pt.obj) cols;
        weight = Array.map snd cols;
        data = Array.map (fun ((pt : _ point), _) -> pt.data) cols;
        off;
        rows;
        vals;
        agg_n = 0;
        agg_rows = [||];
        agg_vals = [||];
      }

let length c = c.n

let weight c q = c.weight.(q)

let data c q = c.data.(q)

let point c q =
  let o = c.off.(q) and l = c.off.(q + 1) - c.off.(q) in
  {
    obj = c.obj.(q);
    usage = Sparse.of_entries (Array.sub c.rows o l) (Array.sub c.vals o l);
    data = c.data.(q);
  }

let heaviest c =
  let best = ref 0 in
  for q = 1 to c.n - 1 do
    if c.weight.(q) > c.weight.(!best) then best := q
  done;
  !best

(* Capacity for [need] entries, at least half as much again as [cap] when
   it has to grow, so a growing combination reallocates rarely. *)
let grown cap need = if need <= cap then cap else max need (cap + (cap / 2))

let ensure_work_columns w need =
  if Array.length w.pick < need then begin
    let cap = grown (Array.length w.pick) need in
    w.pick <- Array.make cap 0;
    w.wt <- Array.create_float cap;
    w.s_obj <- Array.create_float cap;
    w.s_off <- Array.make (cap + 1) 0
  end

(* Two merge buffers of room [need]; their contents are scratch. *)
let ensure_merge w need =
  if Array.length w.a_rows < need then begin
    let cap = grown (Array.length w.a_rows) need in
    w.a_rows <- Array.make cap 0;
    w.a_vals <- Array.create_float cap;
    w.b_rows <- Array.make cap 0;
    w.b_vals <- Array.create_float cap
  end

(* Copy [len] entries of (rows, vals) from [o] into the aggregate. *)
let set_agg c rows vals o len =
  if Array.length c.agg_rows < len then begin
    let cap = grown (Array.length c.agg_rows) len in
    c.agg_rows <- Array.make cap 0;
    c.agg_vals <- Array.create_float cap
  end;
  Array.blit rows o c.agg_rows 0 len;
  Array.blit vals o c.agg_vals 0 len;
  c.agg_n <- len

let ensure_delta w need =
  if Array.length w.d_rows < need then begin
    let cap = grown (Array.length w.d_rows) need in
    w.d_rows <- Array.make cap 0;
    w.d_vals <- Array.create_float cap
  end

let sub_block w c (x : Sparse.t) =
  let nx = Sparse.length x in
  ensure_delta w (nx + c.agg_n);
  Sparse.merge ~write:true 1.0 x.Sparse.rows x.Sparse.vals 0 nx (-1.0) c.agg_rows
    c.agg_vals 0 c.agg_n w.d_rows w.d_vals 0

let sub_column w c q =
  let o = c.off.(q) and l = c.off.(q + 1) - c.off.(q) in
  ensure_delta w (l + c.agg_n);
  Sparse.merge ~write:true 1.0 c.rows c.vals o l (-1.0) c.agg_rows c.agg_vals 0 c.agg_n
    w.d_rows w.d_vals 0

let delta_rows w = w.d_rows

let delta_vals w = w.d_vals

(* Room for [m] columns and [len] arena entries. Content is not kept: the
   callers rewrite every live slot. *)
let ensure_columns c m len filler =
  if Array.length c.obj < m then begin
    (* A step adds at most one column; the prune caps the count, so the
       column arrays stop growing at [max_columns + 1] unless no weight
       passes the threshold. *)
    let cap = max m (min (2 * Array.length c.obj) (max_columns + 1)) in
    c.obj <- Array.create_float cap;
    c.weight <- Array.create_float cap;
    c.data <- Array.make cap filler;
    c.off <- Array.make (cap + 1) 0
  end;
  if Array.length c.rows < len then begin
    let cap = grown (Array.length c.rows) len in
    c.rows <- Array.make cap 0;
    c.vals <- Array.create_float cap
  end

(* Release the payloads of the slots [m, old_n) that a shrink left
   behind, so that pruned points can be collected. *)
let clear_from c m old_n =
  for q = m to old_n - 1 do
    c.data.(q) <- c.data.(0)
  done

(* Stable insertion sort of the first [m] picks by decreasing weight:
   the order of [List.sort] with [Float.compare w2 w1]. *)
let sort_picks w m =
  for q = 1 to m - 1 do
    let p = w.pick.(q) and x = w.wt.(q) in
    let j = ref (q - 1) in
    while !j >= 0 && Float.compare x w.wt.(!j) > 0 do
      w.pick.(!j + 1) <- w.pick.(!j);
      w.wt.(!j + 1) <- w.wt.(!j);
      decr j
    done;
    w.pick.(!j + 1) <- p;
    w.wt.(!j + 1) <- x
  done

let step w c ~tau (pt : _ point) =
  let obj = pt.obj and usage = pt.usage and data = pt.data in
  let n = c.n in
  let scale = 1.0 -. tau in
  ensure_work_columns w (n + 1);
  (* The candidates in column order, the new one first: every weight
     scaled by 1 - tau, the new one's tau. Those above the threshold are
     picked. *)
  let m = ref 0 in
  if tau > min_weight then begin
    w.pick.(0) <- -1;
    w.wt.(0) <- tau;
    m := 1
  end;
  for q = 0 to n - 1 do
    let wq = c.weight.(q) *. scale in
    c.weight.(q) <- wq;
    if wq > min_weight then begin
      w.pick.(!m) <- q;
      w.wt.(!m) <- wq;
      incr m
    end
  done;
  if !m > max_columns then begin
    sort_picks w !m;
    m := max_columns
  end;
  let total = ref 0.0 in
  for q = 0 to !m - 1 do
    total := !total +. w.wt.(q)
  done;
  if !total <= 0.0 then begin
    (* Nothing passed: keep every column, unnormalized. *)
    w.pick.(0) <- -1;
    w.wt.(0) <- tau;
    for q = 0 to n - 1 do
      w.pick.(q + 1) <- q;
      w.wt.(q + 1) <- c.weight.(q)
    done;
    m := n + 1
  end
  else
    for q = 0 to !m - 1 do
      w.wt.(q) <- w.wt.(q) /. !total
    done;
  let m = !m in
  (* Snapshot the old columns, then write the picked ones in order. *)
  let arena = c.off.(n) in
  if Array.length w.s_data < n then w.s_data <- Array.make (grown (Array.length w.s_data) n) data;
  Array.blit c.obj 0 w.s_obj 0 n;
  Array.blit c.data 0 w.s_data 0 n;
  Array.blit c.off 0 w.s_off 0 (n + 1);
  if Array.length w.s_rows < arena then begin
    let cap = grown (Array.length w.s_rows) arena in
    w.s_rows <- Array.make cap 0;
    w.s_vals <- Array.create_float cap
  end;
  Array.blit c.rows 0 w.s_rows 0 arena;
  Array.blit c.vals 0 w.s_vals 0 arena;
  let nx = Sparse.length usage in
  let len = ref 0 in
  for q = 0 to m - 1 do
    let i = w.pick.(q) in
    len := !len + if i < 0 then nx else w.s_off.(i + 1) - w.s_off.(i)
  done;
  ensure_columns c m !len data;
  let pos = ref 0 in
  for q = 0 to m - 1 do
    let i = w.pick.(q) in
    c.off.(q) <- !pos;
    c.weight.(q) <- w.wt.(q);
    if i < 0 then begin
      c.obj.(q) <- obj;
      c.data.(q) <- data;
      Array.blit usage.Sparse.rows 0 c.rows !pos nx;
      Array.blit usage.Sparse.vals 0 c.vals !pos nx;
      pos := !pos + nx
    end
    else begin
      let o = w.s_off.(i) and l = w.s_off.(i + 1) - w.s_off.(i) in
      c.obj.(q) <- w.s_obj.(i);
      c.data.(q) <- w.s_data.(i);
      Array.blit w.s_rows o c.rows !pos l;
      Array.blit w.s_vals o c.vals !pos l;
      pos := !pos + l
    end
  done;
  c.off.(m) <- !pos;
  clear_from c m n;
  c.n <- m;
  (* The aggregate moves by the same step: (1 - tau) agg + tau usage. *)
  ensure_merge w (c.agg_n + nx);
  let k =
    Sparse.merge ~write:true scale c.agg_rows c.agg_vals 0 c.agg_n tau usage.Sparse.rows
      usage.Sparse.vals 0 nx w.a_rows w.a_vals 0
  in
  set_agg c w.a_rows w.a_vals 0 k;
  n + 1 - m

let recompute w c =
  ensure_merge w c.off.(c.n);
  (* u <- 1 u + w_q usage_q, from the empty vector, alternating between
     the two merge buffers. *)
  let src_r = ref w.a_rows and src_v = ref w.a_vals in
  let dst_r = ref w.b_rows and dst_v = ref w.b_vals in
  let len = ref 0 and o = ref 0.0 in
  for q = 0 to c.n - 1 do
    let s = c.off.(q) in
    len :=
      Sparse.merge ~write:true 1.0 !src_r !src_v 0 !len c.weight.(q) c.rows c.vals s
        (c.off.(q + 1) - s) !dst_r !dst_v 0;
    let r = !src_r and v = !src_v in
    src_r := !dst_r;
    src_v := !dst_v;
    dst_r := r;
    dst_v := v;
    o := !o +. (c.weight.(q) *. c.obj.(q))
  done;
  set_agg c !src_r !src_v 0 !len;
  !o

let keep c q =
  let o = c.off.(q) and l = c.off.(q + 1) - c.off.(q) in
  set_agg c c.rows c.vals o l;
  c.obj.(0) <- c.obj.(q);
  c.data.(0) <- c.data.(q);
  c.weight.(0) <- 1.0;
  Array.blit c.rows o c.rows 0 l;
  Array.blit c.vals o c.vals 0 l;
  c.off.(0) <- 0;
  c.off.(1) <- l;
  clear_from c 1 c.n;
  c.n <- 1

let reset c (pt : _ point) =
  let obj = pt.obj and usage = pt.usage and data = pt.data in
  let l = Sparse.length usage in
  ensure_columns c 1 l data;
  c.obj.(0) <- obj;
  c.data.(0) <- data;
  c.weight.(0) <- 1.0;
  Array.blit usage.Sparse.rows 0 c.rows 0 l;
  Array.blit usage.Sparse.vals 0 c.vals 0 l;
  c.off.(0) <- 0;
  c.off.(1) <- l;
  clear_from c 1 c.n;
  c.n <- 1;
  set_agg c usage.Sparse.rows usage.Sparse.vals 0 l
