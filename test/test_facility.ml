(* Tests for the UFL block solvers: heuristics vs exact enumeration, and
   validity of the dual-ascent lower bound (the linchpin of the engine's
   honest optimality gaps). *)

module U = Vod_facility.Ufl

let random_instance rng ~n_fac ~n_cli =
  let open_cost = Array.init n_fac (fun _ -> Vod_util.Rng.float rng *. 5.0) in
  let service =
    Array.init n_cli (fun _ -> Array.init n_fac (fun _ -> Vod_util.Rng.float rng *. 10.0))
  in
  { U.open_cost; service }

let hand_instance () =
  (* 2 facilities, 2 clients; opening both is optimal:
     open costs 1, 1; service: c0: [0, 10], c1: [10, 0].
     best = open both: 1+1+0+0 = 2. *)
  {
    U.open_cost = [| 1.0; 1.0 |];
    service = [| [| 0.0; 10.0 |]; [| 10.0; 0.0 |] |];
  }

let exact_hand () =
  let sol = U.exact (hand_instance ()) in
  Alcotest.(check (float 1e-9)) "optimal cost" 2.0 sol.U.cost;
  Alcotest.(check bool) "both open" true (sol.U.open_set.(0) && sol.U.open_set.(1))

let single_facility_case () =
  (* Expensive opens force a single facility. *)
  let t =
    {
      U.open_cost = [| 100.0; 100.0 |];
      service = [| [| 1.0; 2.0 |]; [| 3.0; 1.0 |] |];
    }
  in
  let sol = U.exact t in
  Alcotest.(check (float 1e-9)) "one open" 103.0 sol.U.cost

let no_clients () =
  (* A video nobody requested still needs one copy: cheapest open. *)
  let t = { U.open_cost = [| 3.0; 1.0; 2.0 |]; service = [||] } in
  let g = U.greedy t in
  Alcotest.(check (float 1e-9)) "cheapest facility" 1.0 g.U.cost;
  Alcotest.(check bool) "facility 1" true g.U.open_set.(1)

let eval_open_requires_open () =
  let t = hand_instance () in
  Alcotest.check_raises "no open facility"
    (Invalid_argument "Ufl.eval_open: no open facility") (fun () ->
      ignore (U.eval_open t [| false; false |]))

let validation () =
  Alcotest.check_raises "negative open" (Invalid_argument "Ufl: bad opening cost")
    (fun () -> U.validate { U.open_cost = [| -1.0 |]; service = [||] });
  Alcotest.check_raises "ragged" (Invalid_argument "Ufl: service row arity")
    (fun () -> U.validate { U.open_cost = [| 1.0; 2.0 |]; service = [| [| 1.0 |] |] })

let greedy_vs_exact_gap () =
  let rng = Vod_util.Rng.create 17 in
  let worst = ref 1.0 in
  for _ = 1 to 40 do
    let t = random_instance rng ~n_fac:6 ~n_cli:8 in
    let e = U.exact t and g = U.greedy t in
    Alcotest.(check bool) "greedy >= exact" true (g.U.cost >= e.U.cost -. 1e-9);
    let ratio = g.U.cost /. Float.max e.U.cost 1e-9 in
    if ratio > !worst then worst := ratio
  done;
  (* Greedy should be within 2x on these small random instances. *)
  Alcotest.(check bool) "greedy not terrible" true (!worst < 2.0)

let local_search_improves () =
  let rng = Vod_util.Rng.create 23 in
  for _ = 1 to 40 do
    let t = random_instance rng ~n_fac:6 ~n_cli:8 in
    let e = U.exact t and g = U.greedy t and ls = U.local_search t in
    Alcotest.(check bool) "ls <= greedy" true (ls.U.cost <= g.U.cost +. 1e-9);
    Alcotest.(check bool) "ls >= exact" true (ls.U.cost >= e.U.cost -. 1e-9)
  done

(* Random instance with 1-30 facilities and 0-25 clients; [ints] draws
   small-integer costs so that equal candidate costs and tied service
   values are common. *)
let ref_instance ~seed ~ints =
  let rng = Vod_util.Rng.create seed in
  let n_fac = 1 + Vod_util.Rng.int rng 30 and n_cli = Vod_util.Rng.int rng 26 in
  let draw scale =
    if ints then float_of_int (Vod_util.Rng.int rng (int_of_float scale))
    else Vod_util.Rng.float rng *. scale
  in
  let open_cost = Array.init n_fac (fun _ -> draw 4.0) in
  let service = Array.init n_cli (fun _ -> Array.init n_fac (fun _ -> draw 6.0)) in
  { U.open_cost; service }

(* The block kernels that [U.greedy] and [U.dual_ascent] must reproduce
   bit for bit: [validate], [eval_open], [solution_of_open], [greedy] and
   [dual_ascent] as they were before they became plain loops (iterator
   closures, Float.min / Float.max) and before [greedy] re-priced its
   savings lazily, copied verbatim, comments included. Kept here, not in
   lib/, as the equivalence reference. *)
module Ufl_ref = struct
  open U

  let validate t =
    let n = n_facilities t in
    if n = 0 then invalid_arg "Ufl: no facilities";
    Array.iter
      (fun o -> if o < 0.0 || Float.is_nan o then invalid_arg "Ufl: bad opening cost")
      t.open_cost;
    Array.iter
      (fun row ->
        if Array.length row <> n then invalid_arg "Ufl: service row arity";
        Array.iter
          (fun s -> if s < 0.0 || Float.is_nan s then invalid_arg "Ufl: bad service cost")
          row)
      t.service

  (* Cost of a solution given its open set: each client served by its
     cheapest open facility. Returns (cost, assignment). *)
  let eval_open t open_set =
    let n = n_facilities t in
    let nc = n_clients t in
    let assign = Array.make nc (-1) in
    let cost = ref 0.0 in
    Array.iteri (fun i o -> if open_set.(i) then cost := !cost +. o) t.open_cost;
    for j = 0 to nc - 1 do
      let best = ref (-1) and best_c = ref infinity in
      for i = 0 to n - 1 do
        if open_set.(i) && t.service.(j).(i) < !best_c then begin
          best := i;
          best_c := t.service.(j).(i)
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
     facility with the largest net saving. O(n_fac^2 * n_cli). *)
  let greedy t =
    validate t;
    let n = n_facilities t and nc = n_clients t in
    (* Best single facility. *)
    let single_cost i =
      let c = ref t.open_cost.(i) in
      for j = 0 to nc - 1 do
        c := !c +. t.service.(j).(i)
      done;
      !c
    in
    let single = Array.init n single_cost in
    let first = ref 0 in
    for i = 1 to n - 1 do
      if single.(i) < single.(!first) then first := i
    done;
    let open_set = Array.make n false in
    open_set.(!first) <- true;
    (* current cheapest service per client *)
    let cur = Array.init nc (fun j -> t.service.(j).(!first)) in
    let improved = ref true in
    while !improved do
      improved := false;
      let best_i = ref (-1) and best_saving = ref 0.0 in
      for i = 0 to n - 1 do
        if not open_set.(i) then begin
          let saving = ref (-.t.open_cost.(i)) in
          for j = 0 to nc - 1 do
            let d = cur.(j) -. t.service.(j).(i) in
            if d > 0.0 then saving := !saving +. d
          done;
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

  (* Erlenkotter-style dual ascent for the UFL LP dual:

       max sum_j v_j   s.t.  sum_j max(0, v_j - s_ij) <= o_i  for all i.

     Any feasible v lower-bounds the LP (hence the ILP) optimum. We raise
     each v_j in cyclic passes to the largest value the slacks allow. The
     result is a maximal — not necessarily maximum — dual solution, which is
     exactly what the EPF lower-bound pass needs: validity, cheaply. *)
  let dual_ascent ?(max_passes = 8) t =
    validate t;
    let n = n_facilities t and nc = n_clients t in
    let v = Array.init nc (fun j -> Array.fold_left Float.min infinity t.service.(j)) in
    let slack = Array.copy t.open_cost in
    (* slack_i = o_i - sum_j (v_j - s_ij)+ ; initially v_j = min service so
       every term is 0 except exact ties, which contribute 0 anyway. *)
    let raise_client j =
      (* Largest t such that for all i: (t - s_ij)+ <= slack_i + (v_j - s_ij)+ *)
      let tmax = ref infinity in
      for i = 0 to n - 1 do
        let s = t.service.(j).(i) in
        let already = Float.max 0.0 (v.(j) -. s) in
        let bound = s +. slack.(i) +. already in
        if bound < !tmax then tmax := bound
      done;
      if !tmax > v.(j) +. 1e-12 then begin
        let old = v.(j) in
        v.(j) <- !tmax;
        (* Update slacks. *)
        for i = 0 to n - 1 do
          let s = t.service.(j).(i) in
          let before = Float.max 0.0 (old -. s) in
          let after = Float.max 0.0 (v.(j) -. s) in
          slack.(i) <- slack.(i) -. (after -. before)
        done;
        true
      end
      else false
    in
    let pass = ref 0 and any = ref true in
    while !any && !pass < max_passes do
      any := false;
      incr pass;
      for j = 0 to nc - 1 do
        if raise_client j then any := true
      done
    done;
    let bound = Array.fold_left ( +. ) 0.0 v in
    (bound, v)
end

(* The definition [U.local_search] must reproduce: the add/drop/swap
   search from the reference greedy that prices every candidate open set
   with a full [eval_open] (O(n_fac * n_cli) and two arrays per
   candidate). Kept here, not in lib/, as the equivalence reference for
   the incremental, pruned version. *)
let local_search_ref ?(max_iter = 200) t =
  let n = U.n_facilities t in
  let sol = ref (Ufl_ref.greedy t) in
  let iter = ref 0 in
  let try_open_set os =
    (* At least one facility must stay open. *)
    if Array.exists (fun b -> b) os then begin
      let cost, _ = Ufl_ref.eval_open t os in
      if cost < !sol.U.cost -. 1e-12 then begin
        sol := Ufl_ref.solution_of_open t os;
        true
      end
      else false
    end
    else false
  in
  let improved = ref true in
  while !improved && !iter < max_iter do
    improved := false;
    incr iter;
    let base = Array.copy !sol.U.open_set in
    (* add moves *)
    for i = 0 to n - 1 do
      if not base.(i) then begin
        let os = Array.copy !sol.U.open_set in
        if not os.(i) then begin
          os.(i) <- true;
          if try_open_set os then improved := true
        end
      end
    done;
    (* drop moves *)
    for i = 0 to n - 1 do
      if base.(i) then begin
        let os = Array.copy !sol.U.open_set in
        if os.(i) then begin
          os.(i) <- false;
          if try_open_set os then improved := true
        end
      end
    done;
    (* swap moves: close one open, open one closed *)
    for i = 0 to n - 1 do
      if !sol.U.open_set.(i) then
        for i' = 0 to n - 1 do
          if not !sol.U.open_set.(i') then begin
            let os = Array.copy !sol.U.open_set in
            os.(i) <- false;
            os.(i') <- true;
            if try_open_set os then improved := true
          end
        done
    done
  done;
  !sol

let same_solution (a : U.solution) (b : U.solution) =
  a.U.open_set = b.U.open_set
  && a.U.assign = b.U.assign
  && Int64.equal (Int64.bits_of_float a.U.cost) (Int64.bits_of_float b.U.cost)

(* A random instance like [ref_instance]; [kind] 2 also turns half the
   zero costs into -0. and one cost in ten into +inf, the edges of what
   [U.validate] admits. *)
let kernel_instance ~seed ~kind =
  let t = ref_instance ~seed ~ints:(kind > 0) in
  if kind < 2 then t
  else begin
    let rng = Vod_util.Rng.create (seed + 1) in
    let edge c =
      if c = 0.0 && Vod_util.Rng.bool rng then -0.0
      else if Vod_util.Rng.int rng 10 = 0 then infinity
      else c
    in
    {
      U.open_cost = Array.map edge t.U.open_cost;
      service = Array.map (Array.map edge) t.U.service;
    }
  end

(* Either the value or the [Invalid_argument] message. *)
let outcome f t = match f t with s -> Ok s | exception Invalid_argument m -> Error m

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_dual (b, v) (b', v') = same_bits b b' && Array.for_all2 same_bits v v'

let prop_kernels_match_ref =
  QCheck.Test.make ~name:"greedy and dual_ascent are bit-identical to the closure reference"
    ~count:600
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, kind) ->
      let t = kernel_instance ~seed ~kind in
      let agree same f g =
        match (outcome f t, outcome g t) with
        | Ok a, Ok b -> same a b
        | Error a, Error b -> a = b
        | _ -> false
      in
      agree same_solution U.greedy Ufl_ref.greedy
      && agree same_dual (fun t -> U.dual_ascent t) (fun t -> Ufl_ref.dual_ascent t)
      && agree same_dual
           (fun t -> U.dual_ascent ~max_passes:1 t)
           (fun t -> Ufl_ref.dual_ascent ~max_passes:1 t)
      && agree
           (fun (c, a) (c', a') -> same_bits c c' && a = a')
           (fun t -> U.eval_open t (Array.make (U.n_facilities t) true))
           (fun t -> Ufl_ref.eval_open t (Array.make (U.n_facilities t) true)))

(* [kind] 2 reaches the exception path: a candidate that leaves a
   client with no finite service cost makes the reference's [eval_open]
   raise, and the incremental search must raise the same exception. *)
let prop_local_search_matches_ref =
  QCheck.Test.make ~name:"local_search is bit-identical to the eval_open reference"
    ~count:450
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, kind) ->
      let t = kernel_instance ~seed ~kind in
      let agree max_iter =
        match
          ( outcome (fun t -> U.local_search ~max_iter t) t,
            outcome (fun t -> local_search_ref ~max_iter t) t )
        with
        | Ok a, Ok b -> same_solution a b
        | Error a, Error b -> a = b
        | _ -> false
      in
      agree 200 && agree 1 && agree 2)

(* Blocks as the placement solver prices them: backbone55 (55
   facilities) over a long-tail week at 0.5 requests per video per day,
   solve-cold's shape, where about half the blocks have no client, most
   others one to three, and the greedy and local-search solutions open
   one to three facilities. [busy] holds the 152 blocks with 4 to 44
   clients. *)
let long_tail =
  lazy
    (let graph = Vod_topology.Topologies.backbone55 () in
     let sc =
       Vod_core.Scenario.make ~days:7 ~requests_per_video_per_day:0.5 ~seed:7 ~graph
         ~n_videos:1000 ()
     in
     let demand = Vod_core.Scenario.demand_of_week sc ~day0:0 in
     let inst =
       Vod_placement.Instance.create ~graph ~catalog:sc.Vod_core.Scenario.catalog ~demand
         ~disk_gb:(Vod_core.Scenario.uniform_disk sc ~multiple:2.0)
         ~link_capacity_mbps:(Vod_placement.Instance.uniform_links graph 8.0)
         ()
     in
     let blocks, _, warm = Vod_placement.Blocks.oracles inst in
     let busy =
       List.filter
         (fun (b : Vod_placement.Blocks.block) ->
           Array.length b.Vod_placement.Blocks.clients >= 4)
         (Array.to_list blocks)
       |> Array.of_list
     in
     (inst, blocks, busy, warm))

(* A block drawn from all blocks or from the busy ones, priced at zero
   prices, at the warm-start disk prices, or at those scaled per row by
   a factor in [0, 4) with link rows at up to 5% of the mean warm disk
   price. *)
let prop_block_shaped_match_ref =
  QCheck.Test.make
    ~name:"greedy and local_search match the references on long-tail blocks" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, prices) ->
      let inst, blocks, busy, warm = Lazy.force long_tail in
      let rng = Vod_util.Rng.create seed in
      let pool = if Vod_util.Rng.bool rng then blocks else busy in
      let b = pool.(Vod_util.Rng.int rng (Array.length pool)) in
      let n = Vod_placement.Instance.n_vhos inst in
      let row_price =
        match prices with
        | 0 -> Array.make (Array.length warm) 0.0
        | 1 -> warm
        | _ ->
            let mean_disk = Array.fold_left ( +. ) 0.0 (Array.sub warm 0 n) /. float_of_int n in
            Array.mapi
              (fun r p ->
                if r < n then p *. 4.0 *. Vod_util.Rng.float rng
                else 0.05 *. mean_disk *. Vod_util.Rng.float rng)
              warm
      in
      let t = Vod_placement.Blocks.ufl_of_block inst b ~obj_price:1.0 ~row_price in
      same_solution (U.greedy t) (Ufl_ref.greedy t)
      && same_solution (U.local_search t) (local_search_ref t)
      && same_solution (U.local_search ~max_iter:1 t) (local_search_ref ~max_iter:1 t))

(* A drop that leaves a client with no finite service cost makes the
   reference raise inside [eval_open]; the incremental search must raise
   the same exception. *)
let local_search_infinite_service () =
  let t =
    {
      U.open_cost = [| 0.0; 0.0; 10.0 |];
      service = [| [| 0.0; infinity; infinity |]; [| infinity; 0.0; 1.0 |] |];
    }
  in
  let outcome f = match f t with s -> Ok s | exception Invalid_argument m -> Error m in
  let r = outcome (fun t -> local_search_ref t) and l = outcome (fun t -> U.local_search t) in
  match (r, l) with
  | Ok a, Ok b -> Alcotest.(check bool) "same solution" true (same_solution a b)
  | Error a, Error b -> Alcotest.(check string) "same exception" a b
  | _ -> Alcotest.fail "reference and local_search disagree on raising"

(* Near 1e16 one unit is half an ulp, so the order in which a candidate's
   opening costs are added decides whether adding facility 1 to greedy's
   {0, 2} pays: in facility order 1 + 1e16 rounds back to 1e16 and the
   add is taken, while 1 + 1 + 1e16 would not round back. The
   incremental search must add them in facility order, as [eval_open]
   does. *)
let local_search_opening_order () =
  let t =
    {
      U.open_cost = [| 1.0; 1e16; 1.0 |];
      service = [| [| 0.0; 1e16 +. 2.0; 1e16 |]; [| 1e16 +. 2.0; 1.0; 1e16 |] |];
    }
  in
  let r = local_search_ref t in
  Alcotest.(check (array bool)) "greedy opens 0 and 2" [| true; false; true |]
    (U.greedy t).U.open_set;
  Alcotest.(check (array bool)) "the add of 1 is taken" [| true; true; true |] r.U.open_set;
  Alcotest.(check bool) "same solution as the reference" true
    (same_solution (U.local_search t) r)

let assignment_is_cheapest_open () =
  let rng = Vod_util.Rng.create 31 in
  let t = random_instance rng ~n_fac:8 ~n_cli:10 in
  let sol = U.local_search t in
  Array.iteri
    (fun j assigned ->
      Alcotest.(check bool) "assigned facility open" true sol.U.open_set.(assigned);
      Array.iteri
        (fun i is_open ->
          if is_open then
            Alcotest.(check bool) "no cheaper open facility" true
              (t.U.service.(j).(i) >= t.U.service.(j).(assigned) -. 1e-9))
        sol.U.open_set)
    sol.U.assign

(* The keystone property: dual ascent <= exact optimum (bound validity),
   checked exhaustively against enumeration. *)
let prop_dual_bound_valid =
  QCheck.Test.make ~name:"dual ascent lower-bounds the exact UFL optimum" ~count:120
    QCheck.(pair small_int small_int)
    (fun (seed, shape) ->
      let rng = Vod_util.Rng.create (1000 + seed + (shape * 7919)) in
      let n_fac = 2 + (shape mod 6) and n_cli = 1 + (seed mod 8) in
      let t = random_instance rng ~n_fac ~n_cli in
      let bound, v = U.dual_ascent t in
      let e = U.exact t in
      (* Validity, plus explicit dual feasibility of v. *)
      let feasible =
        Array.for_all (fun vj -> Float.is_finite vj && vj >= 0.0) v
        &&
        let ok = ref true in
        for i = 0 to n_fac - 1 do
          let load = ref 0.0 in
          Array.iteri
            (fun j vj -> load := !load +. Float.max 0.0 (vj -. t.U.service.(j).(i)))
            v;
          if !load > t.U.open_cost.(i) +. 1e-6 then ok := false
        done;
        !ok
      in
      feasible && bound <= e.U.cost +. 1e-6)

let dual_bound_reasonably_tight () =
  let rng = Vod_util.Rng.create 41 in
  let ratios = ref [] in
  for _ = 1 to 40 do
    let t = random_instance rng ~n_fac:5 ~n_cli:8 in
    let bound, _ = U.dual_ascent t in
    let e = U.exact t in
    ratios := (bound /. Float.max e.U.cost 1e-9) :: !ratios
  done;
  let avg = List.fold_left ( +. ) 0.0 !ratios /. float_of_int (List.length !ratios) in
  (* Erlenkotter ascent is typically within ~15% on random instances. *)
  Alcotest.(check bool) "average tightness > 0.7" true (avg > 0.7)

let exact_rejects_large () =
  let t = { U.open_cost = Array.make 21 1.0; service = [||] } in
  Alcotest.check_raises "too many facilities"
    (Invalid_argument "Ufl.exact: too many facilities (max 20)") (fun () ->
      ignore (U.exact t))

let suite =
  [
    Alcotest.test_case "exact hand instance" `Quick exact_hand;
    Alcotest.test_case "single facility" `Quick single_facility_case;
    Alcotest.test_case "no clients" `Quick no_clients;
    Alcotest.test_case "eval_open guard" `Quick eval_open_requires_open;
    Alcotest.test_case "validation" `Quick validation;
    Alcotest.test_case "greedy vs exact" `Quick greedy_vs_exact_gap;
    Alcotest.test_case "local search improves" `Quick local_search_improves;
    Alcotest.test_case "assignment cheapest-open" `Quick assignment_is_cheapest_open;
    Alcotest.test_case "dual bound tightness" `Quick dual_bound_reasonably_tight;
    Alcotest.test_case "exact size guard" `Quick exact_rejects_large;
    Alcotest.test_case "local search infinite service" `Quick
      local_search_infinite_service;
    Alcotest.test_case "local search opening order" `Quick local_search_opening_order;
    QCheck_alcotest.to_alcotest prop_dual_bound_valid;
    QCheck_alcotest.to_alcotest prop_local_search_matches_ref;
    QCheck_alcotest.to_alcotest prop_kernels_match_ref;
    QCheck_alcotest.to_alcotest prop_block_shaped_match_ref;
  ]
