(* Tests for the placement layer: instance construction, block assembly,
   the end-to-end solve on tiny instances cross-checked against the full
   LP solved by simplex, rounding integrality, feasibility probing and
   migration accounting. *)

module I = Vod_placement.Instance
module B = Vod_placement.Blocks
module Sol = Vod_placement.Solution
module Solve = Vod_placement.Solve
module F = Vod_placement.Feasibility
module G = Vod_topology.Graph
module E = Vod_epf.Engine
module U = Vod_facility.Ufl

(* A tiny deterministic world: 4 VHOs on a ring, 8 videos, 7 days. *)
let tiny_graph () =
  G.create ~name:"ring4" ~n:4
    ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
    ~populations:[| 4.0; 3.0; 2.0; 1.0 |]

let tiny_world ?(n_videos = 8) ?(requests = 600.0) () =
  let graph = tiny_graph () in
  let catalog =
    Vod_workload.Catalog.generate
      (Vod_workload.Catalog.default_params ~n:n_videos ~days:7 ~seed:11)
  in
  let trace =
    Vod_workload.Tracegen.generate
      (Vod_workload.Tracegen.default_params ~catalog
         ~populations:graph.G.populations ~mean_daily_requests:requests ~seed:12)
  in
  let demand =
    Golden.week_demand catalog ~n_vhos:4 trace
  in
  (graph, catalog, demand)

let tiny_instance ?(disk_mult = 2.0) ?(link = 200.0) () =
  let graph, catalog, demand = tiny_world () in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  I.create ~graph ~catalog ~demand
    ~disk_gb:(I.uniform_disk ~total_gb:(disk_mult *. total) 4)
    ~link_capacity_mbps:(I.uniform_links graph link)
    ()

let row_layout () =
  let inst = tiny_instance () in
  Alcotest.(check int) "vhos" 4 (I.n_vhos inst);
  Alcotest.(check int) "links" 8 (I.n_links inst);
  Alcotest.(check int) "windows" 2 (I.n_windows inst);
  Alcotest.(check int) "rows" (4 + (2 * 8)) (I.n_rows inst);
  Alcotest.(check int) "disk row" 2 (I.disk_row inst 2);
  Alcotest.(check int) "link row" (4 + 8 + 3) (I.link_row inst ~window:1 ~link:3);
  let caps = I.capacities inst in
  Alcotest.(check int) "caps arity" (I.n_rows inst) (Array.length caps);
  Array.iter (fun c -> Alcotest.(check bool) "caps positive" true (c > 0.0)) caps

let cost_affine_in_hops () =
  let inst = tiny_instance () in
  Alcotest.(check (float 1e-9)) "local cost = beta" inst.I.beta_cost
    (I.cost inst ~src:0 ~dst:0);
  Alcotest.(check (float 1e-9)) "one hop"
    (inst.I.alpha_cost +. inst.I.beta_cost)
    (I.cost inst ~src:0 ~dst:1)

let instance_validation () =
  let graph, catalog, demand = tiny_world () in
  Alcotest.check_raises "bad disk arity" (Invalid_argument "Instance.create: disk_gb arity")
    (fun () ->
      ignore
        (I.create ~graph ~catalog ~demand ~disk_gb:[| 1.0 |]
           ~link_capacity_mbps:(I.uniform_links graph 100.0)
           ()))

let blocks_cover_demand () =
  let inst = tiny_instance () in
  let blocks = B.build_blocks inst in
  Alcotest.(check int) "one block per video" 8 (Array.length blocks);
  Array.iteri
    (fun video (b : B.block) ->
      Alcotest.(check int) "video id" video b.B.video;
      (* Every demand pair appears among the block's clients. *)
      Array.iter
        (fun (vho, a) ->
          let c = Array.to_list b.B.clients |> List.find (fun c -> c.B.vho = vho) in
          Alcotest.(check (float 1e-9)) "a matches" a c.B.a)
        inst.I.demand.Vod_workload.Demand.a.(video))
    blocks

let block_point_consistency () =
  let inst = tiny_instance () in
  let blocks = B.build_blocks inst in
  let zero = Array.make (I.n_rows inst) 0.0 in
  Array.iter
    (fun (b : B.block) ->
      let ufl = B.ufl_of_block inst b ~obj_price:1.0 ~row_price:zero in
      let sol = Vod_facility.Ufl.greedy ufl in
      let pt = B.point_of_solution inst b sol in
      (* Disk usage of the point = copies * size on the right rows. *)
      let n_open =
        Array.fold_left (fun acc o -> if o then acc + 1 else acc) 0
          sol.Vod_facility.Ufl.open_set
      in
      let disk_usage = ref 0.0 in
      Vod_epf.Sparse.iter
        (fun row v -> if row < 4 then disk_usage := !disk_usage +. v)
        pt.Vod_epf.Engine.usage;
      Alcotest.(check (float 1e-9)) "disk usage"
        (float_of_int n_open *. b.B.size_gb)
        !disk_usage;
      (* With zero prices the point's priced objective equals its obj. *)
      Alcotest.(check bool) "objective nonnegative" true (pt.Vod_epf.Engine.obj >= 0.0))
    blocks

let warm_prices_shape () =
  let inst = tiny_instance () in
  let prices = B.warm_disk_prices inst in
  Alcotest.(check int) "one per vho" 4 (Array.length prices);
  Array.iter (fun p -> Alcotest.(check bool) "nonnegative" true (p >= 0.0)) prices

(* The block kernels that [B.ufl_of_block] and [B.point_of_solution] must
   reproduce bit for bit: the definitions before they became plain loops
   (iterator closures, [Instance.cost] calls, the usage built as an
   association list), copied verbatim, comments included. Kept here, not
   in lib/, as the equivalence reference. Its [Sparse.of_assoc] is the
   library's, which test_epf.ml pins to its own reference. *)
module Blocks_ref = struct
  open B
  module Instance = I

  (* Build the priced UFL instance for a block. *)
  let ufl_of_block (inst : Instance.t) (b : block) ~obj_price ~row_price =
    let n = Instance.n_vhos inst in
    let nw = Instance.n_windows inst in
    let place_cost i =
      if inst.Instance.placement_weight = 0.0 then 0.0
      else
        inst.Instance.placement_weight *. b.size_gb
        *. Instance.cost inst ~src:inst.Instance.origin ~dst:i
    in
    let open_cost =
      Array.init n (fun i ->
          (row_price.(Instance.disk_row inst i) *. b.size_gb)
          +. (obj_price *. place_cost i))
    in
    let service =
      Array.map
        (fun c ->
          Array.init n (fun i ->
              let transfer =
                obj_price *. b.size_gb *. c.a *. Instance.cost inst ~src:i ~dst:c.vho
              in
              let bw = ref 0.0 in
              if i <> c.vho then begin
                let links =
                  Vod_topology.Paths.path_links inst.Instance.paths ~src:i ~dst:c.vho
                in
                for w = 0 to nw - 1 do
                  let load = b.rate_mbps *. c.f.(w) in
                  if load > 0.0 then
                    Array.iter
                      (fun l -> bw := !bw +. (row_price.(Instance.link_row inst ~window:w ~link:l) *. load))
                      links
                done
              end;
              transfer +. !bw))
        b.clients
    in
    { Vod_facility.Ufl.open_cost; service }

  (* Translate a UFL solution into an engine point: true objective
     contribution and coupling-row usage. *)
  let point_of_solution (inst : Instance.t) (b : block)
      (sol : Vod_facility.Ufl.solution) =
    let nw = Instance.n_windows inst in
    let obj = ref 0.0 in
    let usage = ref [] in
    let opens = ref [] in
    Array.iteri
      (fun i is_open ->
        if is_open then begin
          opens := i :: !opens;
          usage := (Instance.disk_row inst i, b.size_gb) :: !usage;
          if inst.Instance.placement_weight > 0.0 then
            obj :=
              !obj
              +. inst.Instance.placement_weight *. b.size_gb
                 *. Instance.cost inst ~src:inst.Instance.origin ~dst:i
        end)
      sol.Vod_facility.Ufl.open_set;
    let serve =
      Array.mapi
        (fun jc c ->
          let i = sol.Vod_facility.Ufl.assign.(jc) in
          obj := !obj +. (b.size_gb *. c.a *. Instance.cost inst ~src:i ~dst:c.vho);
          if i <> c.vho then begin
            let links = Vod_topology.Paths.path_links inst.Instance.paths ~src:i ~dst:c.vho in
            for w = 0 to nw - 1 do
              let load = b.rate_mbps *. c.f.(w) in
              if load > 0.0 then
                Array.iter
                  (fun l -> usage := (Instance.link_row inst ~window:w ~link:l, load) :: !usage)
                  links
            done
          end;
          (c.vho, i))
        b.clients
    in
    let data =
      {
        video = b.video;
        open_vhos = Array.of_list (List.sort Int.compare !opens);
        serve;
      }
    in
    { Vod_epf.Engine.obj = !obj; usage = Vod_epf.Sparse.of_assoc !usage; data }
end

(* Two worlds for the kernel property: a 10-VHO ring with chords (paths
   of up to four links) over three peak windows, and the 4-VHO ring. *)
let kernel_worlds =
  lazy
    (List.map
       (fun (graph, n_windows) ->
         let n = G.n_nodes graph in
         let catalog =
           Vod_workload.Catalog.generate
             (Vod_workload.Catalog.default_params ~n:6 ~days:7 ~seed:5)
         in
         let trace =
           Vod_workload.Tracegen.generate
             (Vod_workload.Tracegen.default_params ~catalog
                ~populations:graph.G.populations ~mean_daily_requests:200.0 ~seed:6)
         in
         let demand =
           Golden.week_demand ~n_windows catalog ~n_vhos:n trace
         in
         I.create ~graph ~catalog ~demand
           ~disk_gb:(I.uniform_disk ~total_gb:100.0 n)
           ~link_capacity_mbps:(I.uniform_links graph 100.0)
           ())
       [
         ( Vod_topology.Topologies.ring_plus_chords ~name:"kernels" ~n:10
             ~target_edges:12 ~seed:3,
           3 );
         (tiny_graph (), 2);
       ])

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

(* Random instance costs (alpha, beta, a placement weight of 0 or > 0, the
   origin), a random block of 0, 1 or many clients with zero and nonzero
   requests and window loads, and random prices with an objective price
   of 0, 1 or random. Both kernels must match the reference bit for bit:
   the UFL costs, and the point of greedy's solution and of a random
   open set with each client on a random open VHO. *)
let prop_block_kernels_match_ref =
  QCheck.Test.make ~name:"block kernels are bit-identical to the closure reference"
    ~count:400 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Vod_util.Rng.create seed in
      let float scale = scale *. Vod_util.Rng.float rng in
      let worlds = Lazy.force kernel_worlds in
      let base = List.nth worlds (Vod_util.Rng.int rng (List.length worlds)) in
      let n = I.n_vhos base and nw = I.n_windows base in
      let inst =
        {
          base with
          I.alpha_cost = 0.5 +. float 2.0;
          beta_cost = (if Vod_util.Rng.bool rng then 1.0 else float 1.0);
          placement_weight = (if Vod_util.Rng.bool rng then 0.0 else float 5.0);
          origin = Vod_util.Rng.int rng n;
        }
      in
      let n_clients =
        match Vod_util.Rng.int rng 3 with
        | 0 -> 0
        | 1 -> 1
        | _ -> 2 + Vod_util.Rng.int rng (n - 1)
      in
      let vhos = Array.sub (Vod_util.Rng.permutation rng n) 0 n_clients in
      Array.sort Int.compare vhos;
      let clients =
        Array.map
          (fun vho ->
            let a = if Vod_util.Rng.int rng 4 = 0 then 0.0 else float 20.0 in
            let f =
              Array.init nw (fun _ -> if Vod_util.Rng.int rng 3 = 0 then 0.0 else float 5.0)
            in
            { B.vho; a; f })
          vhos
      in
      let b =
        {
          B.video = seed mod 6;
          size_gb = 0.5 +. float 3.0;
          rate_mbps = 1.0 +. float 8.0;
          clients;
        }
      in
      let obj_price =
        match Vod_util.Rng.int rng 3 with 0 -> 0.0 | 1 -> 1.0 | _ -> float 5.0
      in
      let row_price = Array.init (I.n_rows inst) (fun _ -> Vod_util.Rng.float rng) in
      let ufl = B.ufl_of_block inst b ~obj_price ~row_price in
      let ufl_ref = Blocks_ref.ufl_of_block inst b ~obj_price ~row_price in
      let random_sol =
        let open_set = Array.init n (fun _ -> Vod_util.Rng.int rng 3 = 0) in
        open_set.(Vod_util.Rng.int rng n) <- true;
        let opens = List.filter (fun i -> open_set.(i)) (List.init n Fun.id) in
        let assign =
          Array.map
            (fun _ -> List.nth opens (Vod_util.Rng.int rng (List.length opens)))
            clients
        in
        { U.open_set; assign; cost = 0.0 }
      in
      let same_point sol =
        let p = B.point_of_solution inst b sol
        and q = Blocks_ref.point_of_solution inst b sol in
        same_bits p.E.obj q.E.obj
        && p.E.usage.Vod_epf.Sparse.rows = q.E.usage.Vod_epf.Sparse.rows
        && same_floats p.E.usage.Vod_epf.Sparse.vals q.E.usage.Vod_epf.Sparse.vals
        && p.E.data = q.E.data
      in
      same_floats ufl.U.open_cost ufl_ref.U.open_cost
      && Array.length ufl.U.service = Array.length ufl_ref.U.service
      && Array.for_all2 same_floats ufl.U.service ufl_ref.U.service
      && same_point (U.greedy ufl)
      && same_point random_sol)

(* [Instance.create] rejects a negative or non-finite cost or weight, and
   an origin that is not a VHO, naming the field. *)
let create_tiny ?alpha_cost ?beta_cost ?placement_weight ?origin () =
  let graph, catalog, demand = tiny_world () in
  ignore
    (I.create ?alpha_cost ?beta_cost ?placement_weight ?origin ~graph ~catalog ~demand
       ~disk_gb:(I.uniform_disk ~total_gb:100.0 4)
       ~link_capacity_mbps:(I.uniform_links graph 100.0)
       ())

let rejects_cost field create () =
  List.iter
    (fun bad ->
      Alcotest.check_raises
        (Printf.sprintf "%s = %g" field bad)
        (Invalid_argument ("Instance.create: " ^ field ^ " must be finite and nonnegative"))
        (fun () -> create bad))
    [ -1.0; Float.nan; Float.infinity ];
  create 0.0

let rejects_origin () =
  List.iter
    (fun origin ->
      Alcotest.check_raises
        (Printf.sprintf "origin = %d" origin)
        (Invalid_argument "Instance.create: origin out of range")
        (fun () -> create_tiny ~origin ()))
    [ -1; 4 ];
  create_tiny ~origin:0 ();
  create_tiny ~origin:3 ()

(* The central cross-check: EPF lower bound <= simplex LP optimum, and the
   rounded MIP objective is close to the LP optimum. *)
let solve_vs_simplex () =
  let inst = tiny_instance ~disk_mult:2.0 ~link:200.0 () in
  let lp_opt =
    match Vod_placement.Lp_check.solve_reference inst with
    | Vod_lp.Simplex.Optimal { objective; _ } -> objective
    | Vod_lp.Simplex.Infeasible -> Alcotest.fail "reference LP infeasible"
    | Vod_lp.Simplex.Unbounded -> Alcotest.fail "reference LP unbounded"
  in
  let params = { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 120 } in
  let report = Solve.solve ~params inst in
  let sol = report.Solve.solution in
  Alcotest.(check bool)
    (Printf.sprintf "LB valid (%.2f <= %.2f)" sol.Sol.lower_bound lp_opt)
    true
    (sol.Sol.lower_bound <= lp_opt +. 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "fractional obj sane (%.2f vs LP %.2f)" report.Solve.lp_objective lp_opt)
    true
    (report.Solve.lp_objective >= lp_opt *. (1.0 -. report.Solve.lp_violation -. 0.05));
  Alcotest.(check bool)
    (Printf.sprintf "MIP obj >= LP opt - slack (%.2f vs %.2f)" sol.Sol.objective lp_opt)
    true
    (sol.Sol.objective >= lp_opt *. 0.90);
  Alcotest.(check bool) "violation moderate" true (sol.Sol.max_violation <= 0.6)

let solution_invariants () =
  let inst = tiny_instance () in
  let report = Solve.solve inst in
  let sol = report.Solve.solution in
  Alcotest.(check int) "all videos placed" 8 sol.Sol.n_videos;
  for video = 0 to 7 do
    Alcotest.(check bool) "at least one copy" true (Sol.copies sol video >= 1);
    (* Server resolves for every vho, and stores the video. *)
    for vho = 0 to 3 do
      let s = Sol.server sol inst.I.paths ~video ~vho in
      Alcotest.(check bool) "server stores video" true (Sol.stores sol ~video ~vho:s)
    done
  done;
  (* Disk accounting matches stored sets. *)
  let used = Sol.disk_used sol inst.I.catalog in
  let total_stored =
    Array.fold_left (fun acc vhos -> acc + Array.length vhos) 0 sol.Sol.stored
  in
  Alcotest.(check bool) "some replication" true (total_stored >= 8);
  Array.iteri
    (fun i u ->
      Alcotest.(check bool) "disk within violated cap" true
        (u <= inst.I.disk_gb.(i) *. (1.0 +. sol.Sol.max_violation +. 1e-6)))
    used

let migration_accounting () =
  let inst = tiny_instance () in
  let r1 = Solve.solve ~params:{ Vod_epf.Engine.default_params with Vod_epf.Engine.seed = 1 } inst in
  let r2 = Solve.solve ~params:{ Vod_epf.Engine.default_params with Vod_epf.Engine.seed = 99 } inst in
  let s1 = r1.Solve.solution and s2 = r2.Solve.solution in
  let t_self, gb_self = Sol.migration ~old_sol:s1 ~new_sol:s1 inst.I.catalog in
  Alcotest.(check int) "self migration empty" 0 t_self;
  Alcotest.(check (float 1e-9)) "self migration zero GB" 0.0 gb_self;
  let t12, gb12 = Sol.migration ~old_sol:s1 ~new_sol:s2 inst.I.catalog in
  Alcotest.(check bool) "nonnegative" true (t12 >= 0 && gb12 >= 0.0)

let feasibility_monotone () =
  let graph, catalog, demand = tiny_world () in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  let probe mult link =
    let inst =
      I.create ~graph ~catalog ~demand
        ~disk_gb:(I.uniform_disk ~total_gb:(mult *. total) 4)
        ~link_capacity_mbps:(I.uniform_links graph link)
        ()
    in
    F.feasible inst
  in
  (* Plenty of disk and bandwidth: feasible. *)
  Alcotest.(check bool) "ample resources feasible" true (probe 4.0 2000.0);
  (* Disk below one copy of the library cannot be feasible. *)
  Alcotest.(check bool) "sub-library disk infeasible" false (probe 0.5 2000.0)

let binary_search_behaviour () =
  let calls = ref [] in
  let feasible_at x =
    calls := x :: !calls;
    x >= 3.0
  in
  (match F.binary_search_min ~lo:1.0 ~hi:8.0 ~tol:0.02 ~feasible_at with
  | Some v -> Alcotest.(check bool) "finds threshold" true (Float.abs (v -. 3.0) < 0.25)
  | None -> Alcotest.fail "expected feasible hi");
  (match F.binary_search_min ~lo:1.0 ~hi:2.0 ~tol:0.02 ~feasible_at:(fun _ -> false) with
  | None -> ()
  | Some _ -> Alcotest.fail "expected None");
  match F.binary_search_min ~lo:5.0 ~hi:8.0 ~tol:0.02 ~feasible_at with
  | Some v -> Alcotest.(check (float 1e-9)) "lo already feasible" 5.0 v
  | None -> Alcotest.fail "expected feasible lo"

(* Random nonnegative multipliers of kind [kind]: zero, the warm-start
   prices times one U(0, 10) draw, or uniform per row: row i gets an
   independent U(0, 10) times the warm-start price mass spread evenly
   over the rows, mass / (rows x b_i), so link rows are priced too. *)
let random_multipliers ~capacities ~kind ~seed warm =
  let rng = Vod_util.Rng.create seed in
  let u () = 10.0 *. Vod_util.Rng.float rng in
  match kind with
  | 0 -> Array.make (Array.length warm) 0.0
  | 1 ->
      let s = u () in
      Array.map (fun p -> s *. p) warm
  | _ ->
      let mass = ref 0.0 in
      Array.iteri (fun i p -> mass := !mass +. (p *. capacities.(i))) warm;
      let rows = float_of_int (Array.length warm) in
      Array.map (fun b -> u () *. !mass /. (rows *. b)) capacities

(* End-to-end cross-check over random instances: a solver's Lagrangian
   bound must never exceed the simplex LP optimum. EPF draws run at 2.5x
   disk and also check that the fractional objective does not beat the
   optimum (modulo the allowed epsilon violation). Benders draws take
   the disk multiple from 1.1-3.0, so tight disks occur, skip instances
   whose LP is not optimal, and check the bound only. Every draw also
   evaluates Engine.lagrangian_bound at random multipliers, which must
   be valid at any lambda >= 0. This is the strongest soundness
   property in the suite. *)
let prop_bound_vs_simplex =
  QCheck.Test.make ~name:"engine bound below simplex LP optimum on random instances"
    ~count:12
    QCheck.(
      quad (int_range 1 10_000) bool (float_range 1.1 3.0)
        (pair (int_range 0 2) (int_range 0 1_000_000)))
    (fun (seed, benders, multiple, (kind, lambda_seed)) ->
      let graph = tiny_graph () in
      let catalog =
        Vod_workload.Catalog.generate
          (Vod_workload.Catalog.default_params ~n:6 ~days:7 ~seed)
      in
      let trace =
        Vod_workload.Tracegen.generate
          (Vod_workload.Tracegen.default_params ~catalog
             ~populations:graph.G.populations ~mean_daily_requests:400.0
             ~seed:(seed + 1))
      in
      let demand =
        Golden.week_demand catalog ~n_vhos:4 trace
      in
      let total = Vod_workload.Catalog.total_size_gb catalog in
      let disk_mult = if benders then multiple else 2.5 in
      let inst =
        I.create ~graph ~catalog ~demand
          ~disk_gb:(I.uniform_disk ~total_gb:(disk_mult *. total) 4)
          ~link_capacity_mbps:(I.uniform_links graph 400.0)
          ()
      in
      let params =
        { Vod_epf.Engine.default_params with Vod_epf.Engine.max_passes = 40; seed }
      in
      let bound_at_random_multipliers () =
        let _, oracles, warm = B.oracles inst in
        let capacities = I.capacities inst in
        Vod_util.Pool.with_pool ~jobs:1 (fun pool ->
            Vod_epf.Engine.lagrangian_bound ~pool ~oracles ~capacities
              (random_multipliers ~capacities ~kind ~seed:lambda_seed warm))
      in
      match Vod_placement.Lp_check.solve_reference inst with
      | Vod_lp.Simplex.Optimal { objective = lp_opt; _ } when benders ->
          let report = Solve.solve ~solver:"benders" ~params inst in
          report.Solve.solution.Sol.lower_bound <= lp_opt +. 1e-6
          && bound_at_random_multipliers () <= lp_opt +. 1e-6
      | Vod_lp.Simplex.Optimal { objective = lp_opt; _ } ->
          let report = Solve.solve ~params inst in
          let sol = report.Solve.solution in
          sol.Sol.lower_bound <= lp_opt +. 1e-6
          && report.Solve.lp_objective
             >= lp_opt *. (1.0 -. report.Solve.lp_violation -. 0.05)
          && bound_at_random_multipliers () <= lp_opt +. 1e-6
      | (Vod_lp.Simplex.Infeasible | Vod_lp.Simplex.Unbounded) when benders ->
          QCheck.assume_fail ()
      | Vod_lp.Simplex.Infeasible | Vod_lp.Simplex.Unbounded -> false)

let lp_check_structure () =
  let inst = tiny_instance () in
  let lp = Vod_placement.Lp_check.build inst in
  Alcotest.(check int) "variable count" (8 * (4 + 16)) lp.Vod_lp.Simplex.n_vars;
  (* Variable indexing round-trips. *)
  Alcotest.(check int) "y index"
    (Vod_placement.Lp_check.y_var ~n:4 ~video:0 3)
    3;
  Alcotest.(check int) "x index"
    (Vod_placement.Lp_check.x_var ~n:4 ~video:1 ~server:2 ~client:3)
    ((1 * 20) + 4 + (2 * 4) + 3)

(* Proposition 5.1: the optimal LP *value* decomposes as
   alpha * T + beta * C where T (hop-weighted transfer) and C (constant
   demand mass) are invariant to alpha, beta — so the optimizer set is
   unchanged. Verified with two exact LP solves at different (alpha,
   beta). *)
let proposition_5_1 () =
  let graph, catalog, demand = tiny_world ~n_videos:6 () in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  let solve_lp ~alpha_cost ~beta_cost =
    let inst =
      I.create ~alpha_cost ~beta_cost ~graph ~catalog ~demand
        ~disk_gb:(I.uniform_disk ~total_gb:(2.0 *. total) 4)
        ~link_capacity_mbps:(I.uniform_links graph 300.0)
        ()
    in
    match Vod_placement.Lp_check.solve_reference inst with
    | Vod_lp.Simplex.Optimal { objective; _ } -> objective
    | _ -> Alcotest.fail "LP not optimal"
  in
  (* Constant term C = sum over demand of size * count. *)
  let c_mass = ref 0.0 in
  Array.iteri
    (fun video pairs ->
      let s = Vod_workload.Video.size_gb (Vod_workload.Catalog.video catalog video) in
      Array.iter (fun (_, a) -> c_mass := !c_mass +. (s *. a)) pairs)
    demand.Vod_workload.Demand.a;
  let o11 = solve_lp ~alpha_cost:1.0 ~beta_cost:1.0 in
  let o25 = solve_lp ~alpha_cost:2.0 ~beta_cost:5.0 in
  let t_from_11 = o11 -. !c_mass in
  let predicted_25 = (2.0 *. t_from_11) +. (5.0 *. !c_mass) in
  Alcotest.(check bool)
    (Printf.sprintf "objective transforms affinely (%.2f vs %.2f)" predicted_25 o25)
    true
    (Float.abs (predicted_25 -. o25) <= 1e-4 *. Float.max 1.0 o25)

(* The placement-transfer term (Eq. 11): a positive weight must not
   increase the number of copies placed and adds origin-transfer cost. *)
let placement_weight_discourages_copies () =
  let graph, catalog, demand = tiny_world () in
  let total = Vod_workload.Catalog.total_size_gb catalog in
  let solve ~placement_weight =
    let inst =
      I.create ~placement_weight ~graph ~catalog ~demand
        ~disk_gb:(I.uniform_disk ~total_gb:(3.0 *. total) 4)
        ~link_capacity_mbps:(I.uniform_links graph 500.0)
        ()
    in
    let report = Solve.solve inst in
    let sol = report.Solve.solution in
    Array.fold_left (fun acc vhos -> acc + Array.length vhos) 0 sol.Sol.stored
  in
  let copies_free = solve ~placement_weight:0.0 in
  let copies_heavy = solve ~placement_weight:50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "heavy placement cost -> fewer copies (%d vs %d)" copies_heavy
       copies_free)
    true
    (copies_heavy <= copies_free)

let fixed_order_also_solves () =
  let inst = tiny_instance () in
  let params =
    { Vod_epf.Engine.default_params with Vod_epf.Engine.shuffle = false; max_passes = 80 }
  in
  let report = Solve.solve ~params inst in
  Alcotest.(check bool) "still produces a placement" true
    (report.Solve.solution.Sol.n_videos = 8)

(* Golden solve fixtures: [Solve.solve] on [tiny_instance] with each
   solver (test/golden/solve_<solver>.golden), and EPF and Benders
   re-solved from their own cold placement as incumbent
   (solve_<solver>_warm.golden). Floats as %h, so any kernel change that
   moves a bound, a violation or an open VHO fails here. *)
let dump_solve (r : Solve.report) =
  let b = Buffer.create 512 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  let sol = r.Solve.solution in
  line "objective %h" sol.Sol.objective;
  line "lower_bound %h" sol.Sol.lower_bound;
  line "max_violation %h" sol.Sol.max_violation;
  line "pre_round_objective %h" r.Solve.lp_objective;
  line "pre_round_violation %h" r.Solve.lp_violation;
  line "passes %d" r.Solve.passes;
  Array.iteri
    (fun video vhos ->
      line "video %d open %s" video
        (String.concat " " (Array.to_list (Array.map string_of_int vhos))))
    sol.Sol.stored;
  Buffer.contents b

let golden_solve ?(warm = false) solver () =
  let inst = tiny_instance () in
  let r = Solve.solve ~solver inst in
  let r =
    if warm then Solve.solve ~solver ~incumbent:r.Solve.solution inst else r
  in
  let name = "solve_" ^ solver ^ if warm then "_warm" else "" in
  Alcotest.(check string) ("golden " ^ name) (Golden.read_fixture name)
    (dump_solve r)

let cold_start_also_solves () =
  let inst = tiny_instance () in
  let _, oracles, _ = B.oracles ~warm_start:false inst in
  let outcome =
    Vod_epf.Engine.solve Vod_epf.Engine.default_params
      ~capacities:(I.capacities inst) ~oracles
  in
  Alcotest.(check bool) "epsilon-ish feasible" true
    (outcome.Vod_epf.Engine.max_violation < 0.5)

let suite =
  [
    Alcotest.test_case "row layout" `Quick row_layout;
    Alcotest.test_case "proposition 5.1" `Slow proposition_5_1;
    Alcotest.test_case "placement weight" `Slow placement_weight_discourages_copies;
    Alcotest.test_case "fixed order solves" `Quick fixed_order_also_solves;
    Alcotest.test_case "cold start solves" `Quick cold_start_also_solves;
    Alcotest.test_case "golden solve epf" `Quick (golden_solve "epf");
    Alcotest.test_case "golden solve benders" `Quick (golden_solve "benders");
    Alcotest.test_case "golden solve simplex" `Quick (golden_solve "simplex");
    Alcotest.test_case "golden solve epf warm" `Quick
      (golden_solve ~warm:true "epf");
    Alcotest.test_case "golden solve benders warm" `Quick
      (golden_solve ~warm:true "benders");
    Alcotest.test_case "cost affine in hops" `Quick cost_affine_in_hops;
    Alcotest.test_case "instance validation" `Quick instance_validation;
    Alcotest.test_case "blocks cover demand" `Quick blocks_cover_demand;
    Alcotest.test_case "block point consistency" `Quick block_point_consistency;
    Alcotest.test_case "warm prices shape" `Quick warm_prices_shape;
    Alcotest.test_case "solve vs simplex" `Slow solve_vs_simplex;
    Alcotest.test_case "solution invariants" `Quick solution_invariants;
    Alcotest.test_case "migration accounting" `Quick migration_accounting;
    Alcotest.test_case "feasibility monotone" `Slow feasibility_monotone;
    Alcotest.test_case "binary search" `Quick binary_search_behaviour;
    Alcotest.test_case "lp_check structure" `Quick lp_check_structure;
    QCheck_alcotest.to_alcotest prop_bound_vs_simplex;
    QCheck_alcotest.to_alcotest prop_block_kernels_match_ref;
    Alcotest.test_case "instance rejects bad alpha_cost" `Quick
      (rejects_cost "alpha_cost" (fun alpha_cost -> create_tiny ~alpha_cost ()));
    Alcotest.test_case "instance rejects bad beta_cost" `Quick
      (rejects_cost "beta_cost" (fun beta_cost -> create_tiny ~beta_cost ()));
    Alcotest.test_case "instance rejects bad placement_weight" `Quick
      (rejects_cost "placement_weight" (fun placement_weight ->
           create_tiny ~placement_weight ()));
    Alcotest.test_case "instance rejects bad origin" `Quick rejects_origin;
  ]
