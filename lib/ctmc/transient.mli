(** Transient solution of a CTMC by uniformization (Jensen's method).

    The chain is uniformized at rate Λ ≥ max exit rate into a DTMC
    P = I + Q/Λ, and π(t) = Σ_k pois(Λt, k) · π₀Pᵏ with the Poisson
    weights computed in log space (stable for large Λt) and truncated at a
    configurable mass tolerance.

    Both solvers optionally report telemetry: [obs] receives the
    uniformization rate and the truncated Poisson support size (the
    number of DTMC steps taken) in scope ["ctmc"], and [profile]
    attributes the whole solve to the [Ctmc_solve] phase. *)

val probabilities :
  ?epsilon:float ->
  ?obs:Obs.Registry.t ->
  ?profile:Obs.Profile.t ->
  Explore.t ->
  t:float ->
  float array
(** [probabilities c ~t] is the state-probability vector at time [t].
    [epsilon] (default 1e-12) bounds the truncated Poisson mass. *)

val accumulated :
  ?epsilon:float ->
  ?obs:Obs.Registry.t ->
  ?profile:Obs.Profile.t ->
  Explore.t ->
  t:float ->
  float array
(** [accumulated c ~t] is the expected total time spent in each state over
    [\[0, t\]] (entries sum to [t]). *)

(** {1 Uniformization steps}

    The pieces both solvers here and {!Steady}'s power iteration are
    built from. *)

val uniform_rate : factor:float -> Explore.t -> float
(** [factor] times the largest exit rate (floored at 1e-9): the
    uniformization rate Λ. The transient solvers use [factor] 1.02. *)

val initial_vector : Explore.t -> float array
(** The initial distribution as a dense probability vector. *)

val dtmc_step : Explore.t -> float -> float array -> float array -> unit
(** [dtmc_step c lambda v w] writes [v P], with [P = I + Q/lambda], over
    [w] (which must not be [v]). *)

val in_solve : Obs.Profile.t option -> (unit -> 'a) -> 'a
(** Runs the thunk as one [Ctmc_solve] profiler phase (or plainly, when
    no profiler is given). *)
