(* Deterministic pseudo-random numbers (splitmix64). We avoid
   [Stdlib.Random] so that traces and placements are reproducible across
   OCaml versions and so that independent streams can be split cheaply. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next_int64 t in
  { state = seed }

(* [n] independent streams split off in index order — the parallel
   layer's per-task seeds. An explicit loop (not [Array.init]) because
   the split order must be the task order regardless of evaluation
   order. *)
let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: n must be nonnegative";
  let rec go acc i = if i = 0 then List.rev acc else go (split t :: acc) (i - 1) in
  Array.of_list (go [] n)

(* Uniform float in [0, 1). Uses the top 53 bits of the 64-bit state. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let f = float t in
  let i = int_of_float (f *. float_of_int bound) in
  if i >= bound then bound - 1 else i

let bool t = float t < 0.5

(* Exponential with the given rate (inverse scale). *)
let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. float t in
  -.log u /. rate

(* Fisher-Yates shuffle in place. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* A random permutation of [0 .. n-1]. *)
let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
