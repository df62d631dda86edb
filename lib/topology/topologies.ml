(* Topology generators.

   The paper evaluates on (a) a 55-VHO IPTV backbone with 76 bidirectional
   links, (b) a BFS tree and a full mesh over the same VHOs, and (c) three
   RocketFuel ISP maps (Tiscali 49/86, Sprint 33/69, Ebone 23/38). Neither
   the AT&T backbone nor the exact RocketFuel edge lists ship with this
   repository, so we generate deterministic synthetic graphs that match the
   published node/link counts: a ring (guaranteeing 2-connectivity, as in
   ISP backbones) plus population-biased chords (hubs get extra links).
   DESIGN.md documents why this substitution preserves the results. *)

let zipf_populations ~seed n =
  (* City sizes follow a Zipf-like law; the rank-to-node assignment is
     shuffled so that node ids carry no meaning. *)
  let rng = Vod_util.Rng.create (seed + 7919) in
  let perm = Vod_util.Rng.permutation rng n in
  let pops = Array.make n 0.0 in
  for rank = 0 to n - 1 do
    pops.(perm.(rank)) <- 1.0 /. ((float_of_int rank +. 1.0) ** 0.8)
  done;
  pops

(* Ring + population-biased chords with exactly [target_edges] undirected
   edges. The ring uses a random node order so the chords are not biased
   toward id-adjacent nodes. *)
let ring_plus_chords ~name ~n ~target_edges ~seed =
  if target_edges < n then invalid_arg "ring_plus_chords: need at least n edges for the ring";
  let max_edges = n * (n - 1) / 2 in
  if target_edges > max_edges then invalid_arg "ring_plus_chords: too many edges requested";
  let populations = zipf_populations ~seed n in
  let rng = Vod_util.Rng.create seed in
  let order = Vod_util.Rng.permutation rng n in
  let seen = Hashtbl.create (2 * target_edges) in
  let edges = ref [] in
  let add u v =
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      edges := (u, v) :: !edges;
      true
    end
    else false
  in
  for k = 0 to n - 1 do
    ignore (add order.(k) order.((k + 1) mod n))
  done;
  (* Chords: endpoints drawn with probability proportional to population,
     so high-demand metros become hubs (as in real ISP backbones). *)
  let sampler = Vod_util.Sampler.create populations in
  let remaining = ref (target_edges - List.length !edges) in
  while !remaining > 0 do
    let u = Vod_util.Sampler.draw sampler rng in
    let v = Vod_util.Sampler.draw sampler rng in
    if add u v then decr remaining
  done;
  Graph.create ~name ~n ~edges:!edges ~populations

let backbone55 () =
  ring_plus_chords ~name:"vod-backbone-55" ~n:55 ~target_edges:76 ~seed:55

let tiscali () = ring_plus_chords ~name:"tiscali" ~n:49 ~target_edges:86 ~seed:49

let sprint () = ring_plus_chords ~name:"sprint" ~n:33 ~target_edges:69 ~seed:33

let ebone () = ring_plus_chords ~name:"ebone" ~n:23 ~target_edges:38 ~seed:23

(* BFS tree rooted at the highest-population VHO; keeps the node set and
   populations of [g] but only n-1 physical links (paper Table IV). *)
let tree_of (g : Graph.t) =
  let n = g.Graph.n in
  let root = ref 0 in
  Array.iteri
    (fun i p -> if p > g.Graph.populations.(!root) then root := i)
    g.Graph.populations;
  let visited = Array.make n false in
  let queue = Queue.create () in
  let edges = ref [] in
  visited.(!root) <- true;
  Queue.push !root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun lid ->
        let w = (Graph.link g lid).Graph.dst in
        if not visited.(w) then begin
          visited.(w) <- true;
          edges := (v, w) :: !edges;
          Queue.push w queue
        end)
      g.Graph.out_links.(v)
  done;
  Graph.create ~name:(g.Graph.name ^ "-tree") ~n ~edges:!edges
    ~populations:g.Graph.populations

(* Full mesh over the node set of [g] (paper Table IV). *)
let full_mesh_of (g : Graph.t) =
  let n = g.Graph.n in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.create ~name:(g.Graph.name ^ "-mesh") ~n ~edges:!edges
    ~populations:g.Graph.populations

(* Load a topology from a plain edge-list file: one "u v" pair of
   nonnegative node ids per line, '#' starts a comment. Node count is max
   id + 1 and every metro weighs 1. This is how operators plug in their
   own maps (e.g. actual RocketFuel exports) in place of the synthetic
   stand-ins. *)
let load_edge_list ?(name = "edge-list") ~path () =
  let edges = ref [] and max_id = ref (-1) in
  let fail lineno what =
    invalid_arg (Printf.sprintf "Topologies.load_edge_list: %s on line %d" what lineno)
  in
  let parse lineno line =
    match
      String.split_on_char ' ' line
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun s -> s <> "")
    with
    | [ u; v ] -> (
        match (int_of_string_opt u, int_of_string_opt v) with
        | Some u, Some v when u < 0 || v < 0 ->
            fail lineno (Printf.sprintf "negative node id %d" (min u v))
        | Some u, Some v ->
            if u <> v then begin
              edges := (u, v) :: !edges;
              max_id := max !max_id (max u v)
            end
        | _ -> fail lineno "bad edge")
    | _ -> fail lineno "bad edge"
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec read lineno =
        match input_line ic with
        | exception End_of_file -> ()
        | line ->
            let line =
              match String.index_opt line '#' with
              | Some i -> String.sub line 0 i
              | None -> line
            in
            let line = String.trim line in
            if line <> "" then parse lineno line;
            read (lineno + 1)
      in
      read 1);
  if !max_id < 1 then invalid_arg "Topologies.load_edge_list: no edges";
  let n = !max_id + 1 in
  (* Drop duplicate undirected edges (Graph.create rejects them). *)
  let seen = Hashtbl.create (List.length !edges) in
  let edges =
    List.filter
      (fun (u, v) ->
        let key = (min u v, max u v) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      !edges
  in
  Graph.create ~name ~n ~edges ~populations:(Array.make n 1.0)

(* [restrict_to_top g k] keeps the [k] highest-population VHOs of [g] and
   re-generates a backbone over them; used to map the 55 VHO demand onto the
   smaller RocketFuel node counts the way the paper does (Sec. VII-F: "sort
   the VHOs starting with the largest request count and use the top n"). *)
let top_population_nodes (g : Graph.t) k =
  let idx = Array.init g.Graph.n (fun i -> i) in
  Array.sort
    (fun a b -> Float.compare g.Graph.populations.(b) g.Graph.populations.(a))
    idx;
  Array.sub idx 0 k
