(* Fixed inter-VHO routing. The paper assumes a predetermined path between
   every pair of VHOs (shortest-path routing, Sec. III); for the MIP only
   the *set* of links on the path matters. We precompute, for every source
   i, a BFS tree with deterministic tie-breaking (lowest next-hop id) and
   store P_ij as an array of directed link ids. P_ii = [||].

   The same paths are also laid out once as a destination-major route
   table: for each destination d, the paths from sources 0, 1, ..., n-1
   into d, end to end in one int array, with one offset per (d, src)
   pair. The per-video block kernels walk every source's path into one
   client VHO, so they read one contiguous stretch of the table; a
   slice's length is the path's hop count on a reachable pair.

   [compute_masked] is the same computation restricted to the surviving
   links of a fault scenario (lib/resil): unreachable pairs get
   hop = max_int and an empty link array (and route slice) instead of
   raising. *)

type routes = {
  n : int;                (* VHO count *)
  off : int array;        (* off.(dst * n + src): the slice start; n * n + 1 entries *)
  link_ids : int array;   (* every path into dst 0, then dst 1, ... *)
}

type t = {
  hop : int array array;          (* hop.(i).(j) = |P_ij|; max_int = unreachable *)
  links : int array array array;  (* links.(i).(j) = directed link ids on path i -> j *)
  routes : routes;                (* the same paths, destination-major *)
}

(* Lay [links] out destination-major (see the header). *)
let route_table n (links : int array array array) =
  let off = Array.make ((n * n) + 1) 0 in
  for dst = 0 to n - 1 do
    for src = 0 to n - 1 do
      let p = (dst * n) + src in
      off.(p + 1) <- off.(p) + Array.length links.(src).(dst)
    done
  done;
  let link_ids = Array.make off.(n * n) 0 in
  for dst = 0 to n - 1 do
    for src = 0 to n - 1 do
      let path = links.(src).(dst) in
      Array.blit path 0 link_ids off.((dst * n) + src) (Array.length path)
    done
  done;
  { n; off; link_ids }

let compute_gen ?link_up ~strict (g : Graph.t) =
  let n = g.Graph.n in
  let alive =
    match link_up with None -> fun _ -> true | Some up -> fun lid -> up.(lid)
  in
  let hop = Array.make_matrix n n 0 in
  let links = Array.init n (fun _ -> Array.make n [||]) in
  for src = 0 to n - 1 do
    (* BFS from [src]; parent_link.(v) = link id used to *reach* v. Links
       are traversed in increasing id order, which makes tie-breaking
       deterministic. *)
    let dist = Array.make n max_int in
    let parent_link = Array.make n (-1) in
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.push src queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun lid ->
          if alive lid then begin
            let w = (Graph.link g lid).Graph.dst in
            if dist.(w) = max_int then begin
              dist.(w) <- dist.(v) + 1;
              parent_link.(w) <- lid;
              Queue.push w queue
            end
          end)
        g.Graph.out_links.(v)
    done;
    for dst = 0 to n - 1 do
      if dst <> src then begin
        if dist.(dst) = max_int then begin
          if strict then invalid_arg "Paths.compute: graph is not connected";
          hop.(src).(dst) <- max_int
          (* links.(src).(dst) stays [||] *)
        end
        else begin
          hop.(src).(dst) <- dist.(dst);
          (* Walk back from dst to src collecting link ids. *)
          let rec collect v acc =
            if v = src then acc
            else
              let lid = parent_link.(v) in
              collect (Graph.link g lid).Graph.src (lid :: acc)
          in
          links.(src).(dst) <- Array.of_list (collect dst [])
        end
      end
    done
  done;
  { hop; links; routes = route_table n links }

let compute g = compute_gen ~strict:true g

let compute_masked g ~link_up =
  if Array.length link_up <> Graph.n_links g then
    invalid_arg "Paths.compute_masked: link_up size mismatch";
  compute_gen ~link_up ~strict:false g

let reachable t ~src ~dst = t.hop.(src).(dst) <> max_int

let hops t ~src ~dst = t.hop.(src).(dst)

let path_links t ~src ~dst = t.links.(src).(dst)

let routes t = t.routes

(* Maximum hop count over all pairs (network diameter under the fixed
   routing). *)
let diameter t =
  Array.fold_left (fun acc row -> Array.fold_left max acc row) 0 t.hop
