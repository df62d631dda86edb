(* Tests for vod_topology: graph construction, shortest paths, topology
   generators matching the paper's node/link counts. *)

module G = Vod_topology.Graph
module P = Vod_topology.Paths
module T = Vod_topology.Topologies

let small_graph () =
  (* 0 - 1 - 2
     |       |
     +---3---+  *)
  G.create ~name:"test" ~n:4
    ~edges:[ (0, 1); (1, 2); (0, 3); (3, 2) ]
    ~populations:[| 1.0; 1.0; 1.0; 1.0 |]

let graph_counts () =
  let g = small_graph () in
  Alcotest.(check int) "nodes" 4 (G.n_nodes g);
  Alcotest.(check int) "directed links" 8 (G.n_links g);
  Alcotest.(check bool) "connected" true (G.is_connected g);
  Alcotest.(check int) "degree of 0" 2 (G.degree g 0)

let graph_validation () =
  let mk edges () =
    ignore (G.create ~name:"x" ~n:3 ~edges ~populations:[| 1.0; 1.0; 1.0 |])
  in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.create: edge endpoint out of range")
    (mk [ (1, 1) ]);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.create: edge endpoint out of range")
    (mk [ (0, 5) ]);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.create: duplicate edge")
    (mk [ (0, 1); (1, 0) ])

let reverse_link_involution () =
  let g = small_graph () in
  for id = 0 to G.n_links g - 1 do
    let r = G.reverse_link g id in
    Alcotest.(check int) "reverse of reverse" id (G.reverse_link g r);
    let l = G.link g id and lr = G.link g r in
    Alcotest.(check int) "src/dst swapped" l.G.src lr.G.dst;
    Alcotest.(check int) "dst/src swapped" l.G.dst lr.G.src
  done

let paths_basic () =
  let g = small_graph () in
  let p = P.compute g in
  Alcotest.(check int) "self hops" 0 (P.hops p ~src:1 ~dst:1);
  Alcotest.(check int) "adjacent" 1 (P.hops p ~src:0 ~dst:1);
  Alcotest.(check int) "two hops" 2 (P.hops p ~src:0 ~dst:2);
  Alcotest.(check int) "self path empty" 0 (Array.length (P.path_links p ~src:2 ~dst:2));
  Alcotest.(check int) "diameter" 2 (P.diameter p)

(* Path links must form a contiguous walk from src to dst. *)
let path_links_contiguous (g : G.t) (p : P.t) =
  let n = G.n_nodes g in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let links = P.path_links p ~src ~dst in
        Alcotest.(check int) "path length = hops" (P.hops p ~src ~dst) (Array.length links);
        let cur = ref src in
        Array.iter
          (fun lid ->
            let l = G.link g lid in
            Alcotest.(check int) "walk continuity" !cur l.G.src;
            cur := l.G.dst)
          links;
        Alcotest.(check int) "walk ends at dst" dst !cur
      end
    done
  done

let paths_walk_small () =
  let g = small_graph () in
  path_links_contiguous g (P.compute g)

let paths_walk_backbone () =
  let g = T.backbone55 () in
  path_links_contiguous g (P.compute g)

(* The route table holds, for every (src, dst), [P.path_links] as its
   slice, whose length is [P.hops] on a reachable pair; the offsets
   cover the whole table. *)
let routes_match_paths name (p : P.t) n =
  let r = P.routes p in
  Alcotest.(check int) (name ^ " vho count") n r.P.n;
  Alcotest.(check int) (name ^ " offsets") ((n * n) + 1) (Array.length r.P.off);
  Alcotest.(check int) (name ^ " table length") (Array.length r.P.link_ids)
    r.P.off.(n * n);
  for dst = 0 to n - 1 do
    for src = 0 to n - 1 do
      let s = r.P.off.((dst * n) + src) and e = r.P.off.((dst * n) + src + 1) in
      let tag = Printf.sprintf "%s %d->%d" name src dst in
      Alcotest.(check (array int)) (tag ^ " slice") (P.path_links p ~src ~dst)
        (Array.sub r.P.link_ids s (e - s));
      if P.reachable p ~src ~dst then
        Alcotest.(check int) (tag ^ " length = hops") (P.hops p ~src ~dst) (e - s)
    done
  done

let route_table () =
  List.iter
    (fun (name, g) -> routes_match_paths name (P.compute g) (G.n_nodes g))
    [
      ("backbone55", T.backbone55 ());
      ("tiscali", T.tiscali ());
      ("sprint", T.sprint ());
      ("ebone", T.ebone ());
      ("ring4.edges", T.load_edge_list ~path:"../tools/golden/ring4.edges" ());
    ];
  (* Sprint with every link of VHO 0 and every fifth other link down:
     pairs into and out of VHO 0 are severed, others reroute. *)
  let g = T.sprint () in
  let up =
    Array.init (G.n_links g) (fun lid ->
        let l = G.link g lid in
        l.G.src <> 0 && l.G.dst <> 0 && lid mod 5 <> 0)
  in
  let masked = P.compute_masked g ~link_up:up in
  Alcotest.(check bool) "some pair severed" false (P.reachable masked ~src:0 ~dst:1);
  routes_match_paths "masked sprint" masked (G.n_nodes g)

let paths_disconnected () =
  let g =
    G.create ~name:"disc" ~n:4 ~edges:[ (0, 1); (2, 3) ]
      ~populations:[| 1.0; 1.0; 1.0; 1.0 |]
  in
  Alcotest.(check bool) "not connected" false (G.is_connected g);
  Alcotest.check_raises "paths reject"
    (Invalid_argument "Paths.compute: graph is not connected") (fun () ->
      ignore (P.compute g))

let topology_counts () =
  let check name g nodes links =
    Alcotest.(check int) (name ^ " nodes") nodes (G.n_nodes g);
    Alcotest.(check int) (name ^ " physical links") links (G.n_links g / 2);
    Alcotest.(check bool) (name ^ " connected") true (G.is_connected g)
  in
  (* The paper's published counts: backbone 55/76, Tiscali 49/86, Sprint
     33/69, Ebone 23/38 (Table IV). *)
  check "backbone" (T.backbone55 ()) 55 76;
  check "tiscali" (T.tiscali ()) 49 86;
  check "sprint" (T.sprint ()) 33 69;
  check "ebone" (T.ebone ()) 23 38

let tree_and_mesh () =
  let g = T.backbone55 () in
  let tree = T.tree_of g in
  Alcotest.(check int) "tree links" 54 (G.n_links tree / 2);
  Alcotest.(check bool) "tree connected" true (G.is_connected tree);
  let mesh = T.full_mesh_of g in
  Alcotest.(check int) "mesh links" (55 * 54 / 2) (G.n_links mesh / 2);
  let p = P.compute mesh in
  Alcotest.(check int) "mesh diameter 1" 1 (P.diameter p)

let populations_zipf () =
  let pops = T.zipf_populations ~seed:1 20 in
  Alcotest.(check int) "size" 20 (Array.length pops);
  Array.iter (fun p -> Alcotest.(check bool) "positive" true (p > 0.0)) pops;
  (* The largest metro must be the Zipf head: weight 1. *)
  Alcotest.(check (float 1e-9)) "max is 1" 1.0 (Array.fold_left Float.max 0.0 pops)

let top_population_ordering () =
  let g = T.backbone55 () in
  let top = T.top_population_nodes g 10 in
  Alcotest.(check int) "count" 10 (Array.length top);
  for i = 0 to 8 do
    Alcotest.(check bool) "descending" true
      (g.G.populations.(top.(i)) >= g.G.populations.(top.(i + 1)))
  done

let determinism () =
  let g1 = T.backbone55 () and g2 = T.backbone55 () in
  Alcotest.(check bool) "same edges" true
    (Array.for_all2 (fun (a : G.link) b -> a.G.src = b.G.src && a.G.dst = b.G.dst)
       g1.G.links g2.G.links)

let suite =
  [
    Alcotest.test_case "graph counts" `Quick graph_counts;
    Alcotest.test_case "graph validation" `Quick graph_validation;
    Alcotest.test_case "reverse link involution" `Quick reverse_link_involution;
    Alcotest.test_case "paths basics" `Quick paths_basic;
    Alcotest.test_case "path links contiguous (small)" `Quick paths_walk_small;
    Alcotest.test_case "path links contiguous (backbone55)" `Quick paths_walk_backbone;
    Alcotest.test_case "disconnected rejected" `Quick paths_disconnected;
    Alcotest.test_case "paper topology counts" `Quick topology_counts;
    Alcotest.test_case "tree and mesh variants" `Quick tree_and_mesh;
    Alcotest.test_case "zipf populations" `Quick populations_zipf;
    Alcotest.test_case "top population ordering" `Quick top_population_ordering;
    Alcotest.test_case "generator determinism" `Quick determinism;
    Alcotest.test_case "route table matches paths" `Quick route_table;
  ]
