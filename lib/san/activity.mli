(** Activities of a stochastic activity network.

    An activity fires when its enabling predicate (the conjunction of its
    input-gate predicates in SAN terms) holds. {e Timed} activities fire
    after a random delay drawn from a marking-dependent distribution;
    {e instantaneous} activities fire in zero time and have priority over
    all timed activities. An activity completes through one of its
    {e cases}, chosen with marking-dependent weights; the case's effect —
    a declarative {!Effect.t} term (input + output gate functions in SAN
    terms) — transforms the marking.

    Semantics implemented by the executor, stated here because the model
    author must know them:

    {ul
    {- An enabled timed activity keeps its sampled completion time while it
       remains enabled, unless its reactivation {!policy} says otherwise.}
    {- A change to a place in {!reads} (one that the guard, the
       distribution or the case weights read, never one that only the
       effect touches; any place for a closure timing) wakes the
       activity. [Keep] then only re-checks
       that it is still enabled; [Resample] also re-draws its completion
       time. For exponential distributions [Resample] yields exact
       competing-risk semantics under marking-dependent rates, and is the
       right default for models (like ITUA) whose rates depend on the
       marking.}
    {- An activity disabled by a marking change is aborted; if re-enabled
       later it samples a fresh delay (no age memory).}
    {- An exponential whose rate evaluates to exactly 0 draws no delay and
       does not fire; a change to one of its reads that makes the rate
       positive schedules it. A constant rate of 0 is accepted too, and
       such an activity never fires. Under [Resample] a scheduled clock whose
       rate drops to 0 is dropped; under [Keep] it is held.}
    {- When several instantaneous activities are enabled, the executor
       picks one uniformly at random, matching the "equally likely to fire
       first" convention used throughout the ITUA paper.}} *)

type policy =
  | Keep  (** hold the sampled time while continuously enabled *)
  | Resample  (** re-draw whenever a dependency changes (see above) *)

(** Declarative timing distribution: a {!Dist.t} shape whose parameters
    are {!Effect.rexpr} float expressions. This is the serializable
    counterpart of the [Marking.t -> Dist.t] closure; {!dist_fn}
    compiles it back to one (folding all-constant parameters into a
    single preallocated distribution record). *)
type dist_ir =
  | DExp of Effect.rexpr  (** exponential, by rate *)
  | DDet of Effect.rexpr  (** deterministic delay *)
  | DUniform of Effect.rexpr * Effect.rexpr  (** lo, hi *)
  | DErlang of int * Effect.rexpr  (** k stages, per-stage rate *)
  | DGamma of Effect.rexpr * Effect.rexpr  (** shape, rate *)
  | DWeibull of Effect.rexpr * Effect.rexpr  (** shape, scale *)
  | DLognormal of Effect.rexpr * Effect.rexpr  (** mu, sigma *)
  | DNormal of Effect.rexpr * Effect.rexpr  (** mean, stddev *)

val constant_dist : dist_ir -> Dist.t option
(** [Some d] when every parameter is a literal ([Effect.RConst], a
    literal's one spelling): the one distribution the activity samples
    in every marking. A constant expression that is not a literal, such
    as [FAdd (RConst 1., RConst 2.)], is evaluated at each sample. *)

val dist_params : dist_ir -> string * Effect.rexpr list
(** The distribution's family (["exponential"], ["erlang(k=3)"], ...;
    an Erlang's stage count is part of it) and its parameters in
    declaration order. *)

val dist_fn : dist_ir -> Marking.t -> Dist.t
(** Compile a declarative distribution to the closure form the executor
    samples from. Evaluates each parameter with {!Effect.rexpr_fn}, so
    a ported closure rate yields bit-identical samples. *)

type timing =
  | Instantaneous
  | Timed of {
      dist : Marking.t -> Dist.t;
      policy : policy;
      dist_ir : dist_ir option;
          (** When present, the declarative form of [dist] (builders
              derive [dist] from it via {!dist_fn}). [None] marks a
              closure-only exponential, which only
              [Model.Builder.timed_exp_ir] builds and serialization
              rejects. *)
    }

type case = {
  case_weight : Marking.t -> float;
      (** [weight_ir] compiled by {!Effect.rexpr_fn}; the executor's hot
          path calls this instead of interpreting [weight_ir]. *)
  weight_ir : Effect.rexpr;
      (** Non-negative, marking-dependent; normalized over the activity's
          cases at firing time. *)
  effect : Effect.t;
      (** Run by the executor through {!Effect.apply} and forked by
          analytical exploration through {!Effect.outcomes}. *)
}

type t = {
  id : int;
  name : string;
  timing : timing;
  enabled : Marking.t -> bool;
      (** [guard] compiled by {!Effect.cond_fn}; the executor's hot path
          calls this instead of interpreting [guard]. *)
  guard : Effect.cond;  (** the enabling predicate *)
  reads : Place.any list;
      (** The places whose changes wake the activity, derived by
          [Model.Builder]: {!ir_reads}, in uid order, so it holds exactly
          the places the guard, a declarative distribution or a case
          weight reads. A closure timing ([dist_ir = None]), whose reads
          cannot be seen, reads every place, in uid order, and wakes on
          every marking change. *)
  cases : case array;
}

val make_case : ?weight:Effect.rexpr -> Effect.t -> case
(** Build a case with the given weight (default [Effect.RConst 1.0]). *)

val ir_reads : t -> int list
(** Sorted uids of the places the activity's IR reads at evaluation
    time: its guard ({!Effect.cond_reads}), its declarative distribution's
    parameters ({!dist_params}) and, when it has several cases, their
    weights. Every branch counts, taken or not. A closure timing
    contributes nothing. *)

val is_instantaneous : t -> bool

val pp : Format.formatter -> t -> unit
