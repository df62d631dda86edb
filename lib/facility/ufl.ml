(* Uncapacitated facility location (UFL).

   Each per-video block of the decomposed placement LP is a UFL instance
   (paper Sec. V-C): facilities are VHOs (opening cost = disk-multiplier
   weight), clients are VHOs with demand (service cost = transfer cost
   plus bandwidth-multiplier weight). These are the paper's "fast block
   heuristics [Charikar-Guha]". Every EPF pass calls [greedy] for its
   block step direction ([Blocks]' [optimize], also the Benders cut
   oracle); [local_search] is [Blocks]' [optimize_strong], which EPF
   rounding and polish and Benders rounding call for their fresh
   candidates; [dual_ascent] gives a valid per-block lower bound for the
   Lagrangian bound (DESIGN.md, "Valid lower bounds"). *)

type t = {
  open_cost : float array;          (* length n_fac, nonnegative *)
  service : float array array;      (* service.(client).(facility) >= 0 *)
}

type solution = {
  open_set : bool array;
  assign : int array;               (* assign.(client) = facility *)
  cost : float;
}

let n_facilities t = Array.length t.open_cost

let n_clients t = Array.length t.service

(* The functions an EPF pass calls per block ([validate], [eval_open],
   [greedy], [dual_ascent]) are plain loops: the dev build compiles with
   -opaque, so an iterator's closure call boxes every float it passes. *)

let validate t =
  let n = n_facilities t in
  if n = 0 then invalid_arg "Ufl: no facilities";
  for i = 0 to n - 1 do
    let o = t.open_cost.(i) in
    if o < 0.0 || Float.is_nan o then invalid_arg "Ufl: bad opening cost"
  done;
  for j = 0 to n_clients t - 1 do
    let row = t.service.(j) in
    if Array.length row <> n then invalid_arg "Ufl: service row arity";
    for i = 0 to n - 1 do
      let s = row.(i) in
      if s < 0.0 || Float.is_nan s then invalid_arg "Ufl: bad service cost"
    done
  done

(* Cost of a solution given its open set: each client served by its
   cheapest open facility. Returns (cost, assignment). Each client scans
   the ascending list of open facilities only: the same candidates in
   the same order as a scan of every facility that skips the closed
   ones. *)
let eval_open t open_set =
  let n = n_facilities t in
  let nc = n_clients t in
  let assign = Array.make nc (-1) in
  let opened = Array.make n 0 in
  let n_open = ref 0 in
  let cost = ref 0.0 in
  for i = 0 to n - 1 do
    if open_set.(i) then begin
      cost := !cost +. t.open_cost.(i);
      opened.(!n_open) <- i;
      incr n_open
    end
  done;
  for j = 0 to nc - 1 do
    let row = t.service.(j) in
    let best = ref (-1) and best_c = ref infinity in
    for q = 0 to !n_open - 1 do
      let i = opened.(q) in
      if row.(i) < !best_c then begin
        best := i;
        best_c := row.(i)
      end
    done;
    if !best < 0 then invalid_arg "Ufl.eval_open: no open facility";
    assign.(j) <- !best;
    cost := !cost +. !best_c
  done;
  (!cost, assign)

let solution_of_open t open_set =
  let cost, assign = eval_open t open_set in
  { open_set = Array.copy open_set; assign; cost }

(* Greedy: start from the single best facility, then repeatedly open the
   facility with the largest net saving. O(n_fac^2 * n_cli) at worst.

   Savings are re-priced lazily. A closed facility's saving
   -o_i + sum_j (cur_j - s_ij)+, summed in client order, can only fall
   from one round to the next: cur_j only falls, IEEE subtraction is
   monotone in it, the terms that stay positive are a subset of the old
   ones, and IEEE addition is monotone in both arguments. So the last
   exactly computed saving [bound.(i)] (infinity before the first) is an
   upper bound on every later one, and a facility whose bound does not
   beat the running best under the [1e-12] test would not be picked: its
   re-pricing is skipped, and the round picks the facility a full
   re-pricing picks. A NaN bound (an infinite opening cost against an
   infinite gain) fails the [<=] and is always re-priced. *)
let greedy t =
  validate t;
  let n = n_facilities t and nc = n_clients t in
  (* Best single facility. The costs are summed row by row, which adds
     each facility's terms in client order, as a per-facility sum does. *)
  let single = Array.copy t.open_cost in
  for j = 0 to nc - 1 do
    let row = t.service.(j) in
    for i = 0 to n - 1 do
      single.(i) <- single.(i) +. row.(i)
    done
  done;
  let first = ref 0 in
  for i = 1 to n - 1 do
    if single.(i) < single.(!first) then first := i
  done;
  let open_set = Array.make n false in
  open_set.(!first) <- true;
  (* current cheapest service per client *)
  let cur = Array.create_float nc in
  for j = 0 to nc - 1 do
    cur.(j) <- t.service.(j).(!first)
  done;
  let bound = Array.make n infinity in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_i = ref (-1) and best_saving = ref 0.0 in
    for i = 0 to n - 1 do
      if (not open_set.(i)) && not (bound.(i) <= !best_saving +. 1e-12) then begin
        let saving = ref (-.t.open_cost.(i)) in
        for j = 0 to nc - 1 do
          let d = cur.(j) -. t.service.(j).(i) in
          if d > 0.0 then saving := !saving +. d
        done;
        bound.(i) <- !saving;
        if !saving > !best_saving +. 1e-12 then begin
          best_saving := !saving;
          best_i := i
        end
      end
    done;
    if !best_i >= 0 then begin
      open_set.(!best_i) <- true;
      for j = 0 to nc - 1 do
        if t.service.(j).(!best_i) < cur.(j) then cur.(j) <- t.service.(j).(!best_i)
      done;
      improved := true
    end
  done;
  solution_of_open t open_set

(* Add / drop / swap local search from [sol] — the classic Charikar-Guha
   style block heuristic. [max_iter] bounds the number of improvement
   rounds; a move is taken as soon as it is found to lower the cost, and
   the scan goes on from the new solution.

   A candidate move closes at most one open facility [drop] and opens at
   most one closed facility [add] (-1 for "none"). Rather than
   re-evaluating the candidate open set from scratch, each client keeps
   its best open service value, the facility giving it (lowest index on
   ties, as in [eval_open]) and the second-best open value, i.e. the best
   over the open facilities other than that one. The candidate's service
   value for client j is then min(kept_j, s_j,add), where kept_j is the
   second-best value if j's best facility is [drop] and the best value
   otherwise. The opening costs are summed over the ascending list of
   open facilities with [add] merged in and [drop] left out, and the
   service values added in client order — exactly [eval_open]'s terms in
   [eval_open]'s order, so every comparison, every accepted move and the
   returned solution are bit-identical to evaluating each candidate with
   [eval_open]. A candidate costs O(n_open + n_cli) and allocates
   nothing; the bookkeeping is rebuilt, in O(n_fac + n_open * n_cli),
   only after an accepted move. The scratch arrays belong to this call,
   so concurrent calls share nothing.

   When every service cost is finite, every candidate serves every
   client, and pricing stops as soon as the partial sum is not below the
   acceptance threshold: every term is >= 0, so the sum only grows and
   the candidate would be rejected anyway. Otherwise each candidate is
   priced in full, so that one leaving a client unserved still reaches
   the [eval_open] call that raises. *)
let improve ~max_iter t sol =
  let n = n_facilities t and nc = n_clients t in
  let sol = ref sol in
  let finite = ref true in
  for j = 0 to nc - 1 do
    let row = t.service.(j) in
    for i = 0 to n - 1 do
      if not (row.(i) < infinity) then finite := false
    done
  done;
  let finite = !finite in
  let cur = Array.make n false in
  let base = Array.make n false in
  let opened = Array.make n 0 in
  let n_open = ref 0 in
  let best = Array.make nc infinity in
  let best_fac = Array.make nc (-1) in
  let second = Array.make nc infinity in
  let rebuild () =
    Array.blit !sol.open_set 0 cur 0 n;
    n_open := 0;
    for i = 0 to n - 1 do
      if cur.(i) then begin
        opened.(!n_open) <- i;
        incr n_open
      end
    done;
    for j = 0 to nc - 1 do
      let row = t.service.(j) in
      let b = ref infinity and f = ref (-1) and s2 = ref infinity in
      for k = 0 to !n_open - 1 do
        let i = opened.(k) in
        let v = row.(i) in
        if v < !b then begin
          s2 := !b;
          b := v;
          f := i
        end
        else if v < !s2 then s2 := v
      done;
      best.(j) <- !b;
      best_fac.(j) <- !f;
      second.(j) <- !s2
    done
  in
  rebuild ();
  let candidate ~drop ~add =
    Array.init n (fun i -> (cur.(i) && i <> drop) || i = add)
  in
  (* Price the candidate and, if it improves on the incumbent, adopt it.
     A client left with no finite service value makes [eval_open] raise;
     the fallback re-runs it on the candidate so the same exception
     escapes. *)
  let try_move ~drop ~add =
    let stop = !sol.cost -. 1e-12 in
    let cost = ref 0.0 in
    let pending = ref (add >= 0) in
    for k = 0 to !n_open - 1 do
      let i = opened.(k) in
      if !pending && add < i then begin
        cost := !cost +. t.open_cost.(add);
        pending := false
      end;
      if i <> drop then cost := !cost +. t.open_cost.(i)
    done;
    if !pending then cost := !cost +. t.open_cost.(add);
    let served = ref true in
    let j = ref 0 in
    while !j < nc && ((not finite) || !cost < stop) do
      let kept = if best_fac.(!j) = drop then second.(!j) else best.(!j) in
      let v =
        if add < 0 then kept
        else
          let s = t.service.(!j).(add) in
          if s < kept then s else kept
      in
      if not (v < infinity) then served := false;
      cost := !cost +. v;
      incr j
    done;
    if not !served then cost := fst (eval_open t (candidate ~drop ~add));
    if !cost < stop then begin
      sol := solution_of_open t (candidate ~drop ~add);
      rebuild ();
      true
    end
    else false
  in
  let iter = ref 0 in
  let improved = ref true in
  while !improved && !iter < max_iter do
    improved := false;
    incr iter;
    Array.blit cur 0 base 0 n;
    (* add moves *)
    for i = 0 to n - 1 do
      if (not base.(i)) && not cur.(i) then
        if try_move ~drop:(-1) ~add:i then improved := true
    done;
    (* drop moves; at least one facility must stay open *)
    for i = 0 to n - 1 do
      if base.(i) && cur.(i) && !n_open > 1 then
        if try_move ~drop:i ~add:(-1) then improved := true
    done;
    (* swap moves: close one open, open one closed. After an accepted
       swap the outer facility is already closed, and the remaining
       inner candidates are plain adds. *)
    for i = 0 to n - 1 do
      if cur.(i) then
        for i' = 0 to n - 1 do
          if not cur.(i') then begin
            let drop = if cur.(i) then i else -1 in
            if try_move ~drop ~add:i' then improved := true
          end
        done
    done
  done;
  !sol

(* Without clients a candidate costs the sum of its opening costs, all
   >= 0, and [greedy] opened the cheapest single facility: no add, drop
   or swap beats it, so the search would return [greedy]'s solution
   after one fruitless round. *)
let local_search ?(max_iter = 200) t =
  let sol = greedy t in
  if n_clients t = 0 then sol else improve ~max_iter t sol

(* Erlenkotter-style dual ascent for the UFL LP dual:

     max sum_j v_j   s.t.  sum_j max(0, v_j - s_ij) <= o_i  for all i.

   Any feasible v lower-bounds the LP (hence the ILP) optimum. We raise
   each v_j in cyclic passes to the largest value the slacks allow. The
   result is a maximal — not necessarily maximum — dual solution, which is
   exactly what the EPF lower-bound pass needs: validity, cheaply.

   [pos d] is Float.max 0. d (a NaN passes through, as there), and the
   initial scan is Float.min's fold with -0. below +0.: plain comparisons
   that give the same bits on every cost [validate] admits, without
   Float's sign-bit C calls. *)
let[@inline] pos d = if d > 0.0 || d <> d then d else 0.0

let dual_ascent ?(max_passes = 8) t =
  validate t;
  let n = n_facilities t and nc = n_clients t in
  let v = Array.create_float nc in
  for j = 0 to nc - 1 do
    let row = t.service.(j) in
    let m = ref infinity in
    for i = 0 to n - 1 do
      let s = row.(i) in
      if s < !m || (s = 0.0 && 1.0 /. s < 0.0) then m := s
    done;
    v.(j) <- !m
  done;
  let slack = Array.copy t.open_cost in
  (* slack_i = o_i - sum_j (v_j - s_ij)+ ; initially v_j = min service so
     every term is 0 except exact ties, which contribute 0 anyway. *)
  let pass = ref 0 and any = ref true in
  while !any && !pass < max_passes do
    any := false;
    incr pass;
    for j = 0 to nc - 1 do
      (* Raise v_j to the largest t such that for all i:
         (t - s_ij)+ <= slack_i + (v_j - s_ij)+ *)
      let row = t.service.(j) in
      let tmax = ref infinity in
      for i = 0 to n - 1 do
        let s = row.(i) in
        let bound = s +. slack.(i) +. pos (v.(j) -. s) in
        if bound < !tmax then tmax := bound
      done;
      if !tmax > v.(j) +. 1e-12 then begin
        let old = v.(j) in
        v.(j) <- !tmax;
        (* Update slacks. *)
        for i = 0 to n - 1 do
          let s = row.(i) in
          let before = pos (old -. s) in
          let after = pos (v.(j) -. s) in
          slack.(i) <- slack.(i) -. (after -. before)
        done;
        any := true
      end
    done
  done;
  let bound = ref 0.0 in
  for j = 0 to nc - 1 do
    bound := !bound +. v.(j)
  done;
  (!bound, v)

(* Exact optimum by enumerating open sets; for tests only. *)
let exact t =
  validate t;
  let n = n_facilities t in
  if n > 20 then invalid_arg "Ufl.exact: too many facilities (max 20)";
  let best = ref None in
  let open_set = Array.make n false in
  for mask = 1 to (1 lsl n) - 1 do
    for i = 0 to n - 1 do
      open_set.(i) <- mask land (1 lsl i) <> 0
    done;
    let cost, _ = eval_open t open_set in
    match !best with
    | Some (bc, _) when bc <= cost -> ()
    | _ -> best := Some (cost, Array.copy open_set)
  done;
  match !best with
  | Some (_, os) -> solution_of_open t os
  | None -> invalid_arg "Ufl.exact: no facilities"
