(** Long-run (steady-state) solution of a CTMC.

    Power iteration on the uniformized DTMC. For an irreducible chain this
    converges to the stationary distribution; for an absorbing chain it
    converges to the long-run absorption distribution (from the initial
    distribution), which is the relevant notion for the ITUA model, whose
    exclusion dynamics are absorbing. *)

val distribution :
  ?tol:float ->
  ?obs:Obs.Registry.t ->
  ?convergence:Obs.Convergence.t ->
  ?profile:Obs.Profile.t ->
  Explore.t ->
  float array
(** [distribution c] iterates until the L1 change per step falls below
    [tol] (default 1e-12), for at most 1,000,000 steps. Raises
    [Failure] if not converged.

    [obs] receives the iteration count, uniformization rate and final
    residual in scope ["ctmc"]; [convergence] receives the L1-delta
    trajectory (measure ["ctmc_steady_delta"], one point per
    power-of-two iteration plus the final one); [profile] attributes
    the whole solve to the [Ctmc_solve] phase. *)
