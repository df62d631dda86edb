(* Walker alias method: O(n) preprocessing, O(1) sampling from a fixed
   discrete distribution. Used heavily by the trace generator, which draws
   hundreds of thousands of (video, VHO) samples per simulated month. *)

type t = {
  n : int;
  prob : float array;   (* acceptance threshold per bucket *)
  alias : int array;    (* fallback outcome per bucket *)
}

let create weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sampler.create: empty weight vector";
  (* Non-finite weights must be rejected up front: an [infinity] makes
     [total] infinite and every [scaled] entry NaN, which silently
     corrupts the alias table (NaN fails every [< 1.0] test, so all
     buckets land in [large] with garbage thresholds). *)
  Array.iter
    (fun w ->
      if not (Float.is_finite w) then
        invalid_arg "Sampler.create: non-finite weight"
      else if w < 0.0 then invalid_arg "Sampler.create: negative weight")
    weights;
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Sampler.create: weights must sum to > 0";
  let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
  let prob = Array.make n 1.0 in
  let alias = Array.init n (fun i -> i) in
  let small = Stack.create () and large = Stack.create () in
  Array.iteri (fun i p -> if p < 1.0 then Stack.push i small else Stack.push i large) scaled;
  while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
    let s = Stack.pop small and l = Stack.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
    if scaled.(l) < 1.0 then Stack.push l small else Stack.push l large
  done;
  (* Leftovers are 1.0 up to rounding. *)
  Stack.iter (fun i -> prob.(i) <- 1.0) small;
  Stack.iter (fun i -> prob.(i) <- 1.0) large;
  { n; prob; alias }

let draw t rng =
  let i = Rng.int rng t.n in
  if Rng.float rng < t.prob.(i) then i else t.alias.(i)
