(** State-space generation: SAN → continuous-time Markov chain.

    Reproduces Möbius's analytical path: starting from the initial
    marking, instantaneous activities are eliminated on the fly
    ({e vanishing-marking elimination}: each vanishing marking is resolved
    into a probability distribution over the stable markings reached
    through chains of instantaneous firings), and every timed activity
    must be exponentially distributed in every explored marking.

    A {!San.Effect.Pick} forks into its feasible branches with uniform
    weights, so effects never need a random stream. The reachable stable
    state space must be finite (bounded by [max_states]). *)

exception Non_markovian of string
(** A timed activity had a non-exponential distribution in some reachable
    marking. *)

exception Vanishing_loop of string
(** A chain of instantaneous firings did not terminate. *)

exception Too_many_states of int
(** Exploration exceeded [max_states]. The per-firing caps raise their
    own exceptions: {!San.Effect.Too_many_outcomes} and
    {!Walker.Too_wide}. *)

exception Unsound_canon of string
(** The [~audit:true] cross-check caught the supplied [canon] merging
    states with different one-step behaviour (or failing idempotence):
    the quotient chain would not be a lumping of the full chain. *)

type t

val explore :
  ?max_states:int ->
  ?canon:(int array * float array -> int array * float array) ->
  ?audit:bool ->
  ?obs:Obs.Registry.t ->
  ?profile:Obs.Profile.t ->
  San.Model.t ->
  t
(** Builds the CTMC. Default [max_states] is 200_000.

    [obs] receives the explored state and (merged) transition counts in
    scope ["ctmc"]; [profile] attributes the exploration to the
    [Ctmc_explore] phase (the phase is left open on an exploration
    exception, which aborts the analysis anyway).

    [canon], when supplied, maps every stable state key to a canonical
    representative before interning — the hook for exact lumping: when
    [canon] picks one representative per orbit of a symmetry of the
    model (see [Analysis.Orbit.canon]), the resulting chain is the lumped
    quotient and every measure over symmetric reward functions is
    preserved. [canon] must be pure and idempotent on its image; the
    default is the identity.

    [audit] (default [false]) cross-checks strong lumpability on the
    fly: for every distinct pre-canon key whose representative differs,
    the one-step successor-rate distribution over canonical classes of
    the key and of its representative must agree within 1e-9 relative
    tolerance (and [canon] must be idempotent there). Violations raise
    {!Unsound_canon}. Expanding both sides costs roughly the unlumped
    exploration on top of the lumped one — intended for validation runs
    and CI gates, not the hot path. *)

val n_states : t -> int

val initial_dist : t -> (int * float) list
(** Distribution over states at t = 0 (the initial marking can resolve
    through random instantaneous choices into several stable states). *)

val transitions : t -> int -> (int * float) list
(** [transitions c i] lists [(j, rate)] with merged parallel transitions
    and no self-loops. *)

val exit_rate : t -> int -> float
(** Total outgoing rate of state [i]. *)

val marking : t -> int -> San.Marking.t
(** The stable marking of state [i] (a shared read-only instance per call;
    do not mutate). *)

val eval : t -> (San.Marking.t -> float) -> float array
(** [eval c f] applies a marking function to every state. *)

val max_exit_rate : t -> float

val make_absorbing : t -> (int -> bool) -> t
(** [make_absorbing c is_absorbing] is the chain with every outgoing
    transition of the selected states removed — the standard first-passage
    transformation (see {!Measure.ever}). *)
