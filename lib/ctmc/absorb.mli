(** Absorption analysis of a CTMC: mean time to absorption and absorption
    probabilities, by Gauss–Seidel solution of the first-step equations.

    A state is {e absorbing} when it has no outgoing transitions (exit
    rate 0). These measures complement {!Transient}: the ITUA model's
    exclusion dynamics are absorbing, so "how long until the system is
    fully degraded" is a mean-time-to-absorption question. *)

val absorbing_states : Explore.t -> int list

val mean_time_to_absorption : ?tol:float -> Explore.t -> float
(** Expected time until an absorbing state is reached, from the initial
    distribution. Raises [Failure] if the chain has no absorbing state
    reachable with probability 1 (detected as non-convergence) or if the
    iteration does not converge within 1,000,000 sweeps at tolerance
    [tol] (default 1e-12). *)

val absorption_probabilities :
  ?tol:float -> Explore.t -> target:(int -> bool) -> float
(** Probability that the chain is eventually absorbed in a state
    satisfying [target], from the initial distribution. *)
