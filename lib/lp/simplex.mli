(** Dense two-phase primal simplex. The entering column is the one with
    the largest reduced cost (Dantzig's rule, the lowest index on ties)
    until a phase has made 50 degenerate pivots; Bland's anti-cycling
    rule then takes over for the rest of that phase, so every solve
    terminates.

    The repository's stand-in for the commercial LP solver the paper uses
    as its baseline (Table III), and the ground-truth oracle for testing
    the decomposition solver on small instances. A pivot costs touched
    rows x pivot-row nonzeros, but the tableau is dense — (rows + 1) x
    (variables + slacks + artificials + 1) floats — and the pivot count
    grows with the instance too; the point of the paper — and of this
    reproduction — is precisely that the full placement LP outgrows this
    kind of solver. *)

type rel = Le | Ge | Eq

type constr = {
  row : (int * float) list;  (** sparse (variable, coefficient) pairs *)
  rel : rel;
  rhs : float;
}

type problem = {
  n_vars : int;
  minimize : float array;
  constraints : constr list;
}

type result =
  | Optimal of {
      objective : float;
      solution : float array;
      duals : float array;
          (** One dual price per constraint, in input order, for the
              constraint as written (before any internal sign
              normalization). Convention for a minimization over
              nonnegative variables: [Le] rows have duals <= 0, [Ge]
              rows >= 0, [Eq] rows are free; strong duality holds
              ([objective = sum duals.(i) *. rhs_i]) and so does
              complementary slackness ([duals.(i) *. (activity_i -
              rhs_i) = 0] up to solver tolerance). Redundant rows left
              with a degenerate basic artificial get dual 0. *)
    }
  | Infeasible
  | Unbounded

(** A result with what its solve did: the pivots it made (both phases,
    and the pivots that drive a degenerate artificial out of the basis
    between them), and whether a phase made 50 degenerate pivots and so
    fell back to Bland's rule. *)
type solved = { result : result; pivots : int; bland_fallback : bool }

(** Solve a minimization LP over nonnegative variables.
    Raises [Invalid_argument] if a constraint references a variable outside
    [0, n_vars). *)
val solve : problem -> result

(** {!solve}, also reporting what the solve did. *)
val solve_with_stats : problem -> solved
