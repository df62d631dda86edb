(* Sparse row-usage vectors: two parallel arrays, the row ids strictly
   increasing and their nonzero values, 16 B per entry. These are the
   block solutions' footprints on the coupling constraints; supports stay
   tiny (a video touches its disk rows and the links on a handful of
   paths), so merge-based arithmetic wins over hashing.

   Every operation is a plain loop over the two arrays: the dev build
   compiles with -opaque, so a closure call or a cross-module call per
   entry would box the float it passes or returns. *)

type t = { rows : int array; vals : float array }

let empty = { rows = [||]; vals = [||] }

let length x = Array.length x.rows

(* Sort the entries by row in place, keeping duplicates in index order
   (insertion sort: supports are a handful of entries), then sum each
   row's duplicates from the last entry back and drop rows that sum to
   zero. Returns the arrays themselves when nothing is dropped. *)
let canonical rows vals =
  let m = Array.length rows in
  for k = 1 to m - 1 do
    let r = rows.(k) and v = vals.(k) in
    let j = ref (k - 1) in
    while !j >= 0 && rows.(!j) > r do
      rows.(!j + 1) <- rows.(!j);
      vals.(!j + 1) <- vals.(!j);
      decr j
    done;
    rows.(!j + 1) <- r;
    vals.(!j + 1) <- v
  done;
  let kept = ref 0 and s = ref 0 in
  while !s < m do
    let r = rows.(!s) in
    let e = ref (!s + 1) in
    while !e < m && rows.(!e) = r do
      incr e
    done;
    let acc = ref 0.0 in
    for k = !e - 1 downto !s do
      acc := !acc +. vals.(k)
    done;
    if !acc <> 0.0 then begin
      rows.(!kept) <- r;
      vals.(!kept) <- !acc;
      incr kept
    end;
    s := !e
  done;
  if !kept = m then { rows; vals }
  else { rows = Array.sub rows 0 !kept; vals = Array.sub vals 0 !kept }

let of_entries rows vals =
  if Array.length rows <> Array.length vals then
    invalid_arg "Sparse.of_entries: rows/vals length mismatch";
  canonical rows vals

let of_assoc l =
  (* The list's head is summed first, so it goes last. *)
  let m = List.length l in
  let rows = Array.make m 0 and vals = Array.create_float m in
  let rest = ref l in
  for k = m - 1 downto 0 do
    match !rest with
    | (r, v) :: tl ->
        rows.(k) <- r;
        vals.(k) <- v;
        rest := tl
    | [] -> ()
  done;
  canonical rows vals

(* One merge of a*x + b*y over the slices x = [xo, xo + xn) of (xr, xv)
   and y = [yo, yo + yn) of (yr, yv): the entries that pass the 1e-15 drop
   rule, in row order, written to (rr, rv) from [ro] on when [write].
   Returns their count. *)
let merge ~write a xr xv xo xn b yr yv yo yn rr rv ro =
  let xe = xo + xn and ye = yo + yn in
  let i = ref xo and j = ref yo and k = ref ro in
  while !i < xe || !j < ye do
    let r = ref 0 and v = ref 0.0 in
    if !j >= ye || (!i < xe && xr.(!i) < yr.(!j)) then begin
      r := xr.(!i);
      v := a *. xv.(!i);
      incr i
    end
    else if !i >= xe || yr.(!j) < xr.(!i) then begin
      r := yr.(!j);
      v := b *. yv.(!j);
      incr j
    end
    else begin
      r := xr.(!i);
      v := (a *. xv.(!i)) +. (b *. yv.(!j));
      incr i;
      incr j
    end;
    if Float.abs !v > 1e-15 then begin
      if write then begin
        rr.(!k) <- !r;
        rv.(!k) <- !v
      end;
      incr k
    end
  done;
  !k - ro

(* [axpby a x b y] = a*x + b*y as a fresh sorted sparse vector: one merge
   counts the surviving entries, a second fills arrays of that size. *)
let axpby a x b y =
  let nx = length x and ny = length y in
  let m = merge ~write:false a x.rows x.vals 0 nx b y.rows y.vals 0 ny [||] [||] 0 in
  let rows = Array.make m 0 and vals = Array.create_float m in
  ignore (merge ~write:true a x.rows x.vals 0 nx b y.rows y.vals 0 ny rows vals 0);
  { rows; vals }

let sub x y = axpby 1.0 x (-1.0) y

(* Add [x] into the dense accumulator [acc], scaled by [a]. *)
let add_into acc a x =
  for k = 0 to length x - 1 do
    let r = x.rows.(k) in
    acc.(r) <- acc.(r) +. (a *. x.vals.(k))
  done

(* Dot product with a dense price vector. *)
let dot prices x =
  let s = ref 0.0 in
  for k = 0 to length x - 1 do
    s := !s +. (prices.(x.rows.(k)) *. x.vals.(k))
  done;
  !s

let iter f x =
  for k = 0 to length x - 1 do
    f x.rows.(k) x.vals.(k)
  done

let support x = Array.copy x.rows
