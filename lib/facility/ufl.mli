(** Uncapacitated facility location — the per-video block problem of the
    decomposed placement LP (paper Sec. V-C/V-D).

    Facilities are VHOs (opening = storing a copy); clients are VHOs with
    demand. Costs must be nonnegative, which the EPF multipliers
    guarantee. *)

type t = {
  open_cost : float array;       (** per-facility opening cost *)
  service : float array array;   (** [service.(client).(facility)] *)
}

type solution = {
  open_set : bool array;
  assign : int array;   (** cheapest open facility per client *)
  cost : float;
}

(** Number of candidate facilities in the instance. *)
val n_facilities : t -> int

(** Number of clients in the instance. *)
val n_clients : t -> int

(** Raises [Invalid_argument] on negative/NaN costs, ragged service rows,
    or an empty facility set. *)
val validate : t -> unit

(** [eval_open t open_set] = (cost, assignment) serving every client from
    its cheapest open facility. Raises [Invalid_argument] if no facility
    is open. *)
val eval_open : t -> bool array -> float * int array

(** Build a [solution] record from an open set. *)
val solution_of_open : t -> bool array -> solution

(** Greedy opening heuristic (best single facility + largest-saving adds,
    the first facility in index order on ties within [1e-12]). A closed
    facility is re-priced in a round only when its last computed saving,
    an upper bound on the current one, beats the round's running best;
    the result is bit-identical to re-pricing every closed facility in
    every round. *)
val greedy : t -> solution

(** Add/drop/swap local search seeded by [greedy] — the Charikar-Guha-style
    block heuristic behind EPF rounding and polish and Benders rounding
    (the EPF block steps use {!greedy}).

    Each round scans the add moves (facilities closed at the round's
    start), the drop moves (facilities open at its start, while more than
    one is open) and the swap moves (live open x live closed), taking the
    first move that lowers the cost by more than [1e-12]; it stops after a
    round with no improving move or after [max_iter] (default 200)
    rounds. Each candidate move is priced in O(open + n_clients) from the
    list of open facilities and per-client best/second-best bookkeeping,
    with no allocation; when every service cost is finite, pricing stops
    once the partial sum reaches the acceptance threshold. A block with
    no client returns {!greedy}'s solution, which no move improves. The
    result is bit-identical to pricing every candidate with {!eval_open}:
    same open set, assignment and cost. Rebuilding the bookkeeping after
    an accepted move costs O(n_facilities + open * n_clients). Raises
    [Invalid_argument] like {!eval_open} if a candidate leaves a client
    with no finite service cost. *)
val local_search : ?max_iter:int -> t -> solution

(** Erlenkotter-style dual ascent. Returns [(bound, v)] where [bound] is a
    valid lower bound on the LP (hence ILP) optimum and [v] the feasible
    dual values. *)
val dual_ascent : ?max_passes:int -> t -> float * float array

(** Exact optimum by enumeration; [n_facilities <= 20] (tests only). *)
val exact : t -> solution
