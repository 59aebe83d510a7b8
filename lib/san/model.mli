(** SAN models and their builder.

    A model is an immutable collection of places and activities together
    with an initial marking. Models are built once through {!Builder} and
    can then be simulated ({!Sim.Executor} in the [sim] library) or
    converted to a CTMC ([ctmc] library) any number of times, including
    concurrently from several domains: nothing in a built model is
    mutated by execution. *)

type t

(** Imperative model construction. *)
module Builder : sig
  type model := t
  type t

  val create : string -> t
  (** [create name] starts an empty model. *)

  val int_place : t -> ?init:int -> string -> Place.t
  (** Declares an int place with initial marking [init] (default 0). Place
      names must be unique within the model; [Invalid_argument]
      otherwise. *)

  val float_place : t -> ?init:float -> string -> Place.fl

  (** {2 Activities}

      Every activity takes an {!Effect.cond} guard (its [enabled]
      closure is compiled from the guard) and {!Effect.t} effects, so
      structural analysis reads it exactly. Timing distributions are
      {!Activity.dist_ir} data and case weights {!Effect.rexpr}s, so
      the whole activity is serializable ([Serial], [itua_sim save]);
      the derived sampling closures are bit-identical to hand-written
      ones. Activity names must be unique, at least one case is
      required, an all-constant distribution must pass
      {!Dist.validate} (except an exponential of constant rate 0, which
      never fires: see {!Activity}), an Erlang needs [k >= 1] and a constant case
      weight must be finite and [>= 0]; [Invalid_argument] otherwise. Timed activities default to
      the {!Activity.Resample} policy (see {!Activity.policy} for why
      that is the safe default under marking-dependent rates).

      No entry point uses a read list: {!build} sets each activity's
      [reads] to the places its guard, distribution and case weights
      read ({!Activity.ir_reads}), in uid order, and a closure timing's
      ({!timed_exp_ir}) to every place. *)

  val activity_ir :
    t ->
    name:string ->
    timing:Activity.timing ->
    guard:Effect.cond ->
    Activity.case list ->
    unit

  val instantaneous_ir :
    t ->
    name:string ->
    guard:Effect.cond ->
    Effect.t ->
    unit

  val timed_dist_ir :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    dist:Activity.dist_ir ->
    guard:Effect.cond ->
    Activity.case list ->
    unit

  val timed_exp_rate_ir :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    rate:Effect.rexpr ->
    guard:Effect.cond ->
    Effect.t ->
    unit
  (** Single-case exponential activity with a declarative rate. *)

  val timed_exp_cases_rate_ir :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    rate:Effect.rexpr ->
    guard:Effect.cond ->
    (float * Effect.t) list ->
    unit
  (** Exponential activity with constant-probability cases; each weight
      is recorded declaratively as [Effect.RConst]. *)

  val timed_exp_ir :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    ?reads:Place.any list ->
    rate:(Marking.t -> float) ->
    guard:Effect.cond ->
    Effect.t ->
    unit
  (** The last closure builder: a single-case exponential activity whose
      rate is an opaque closure, so its timing has no declarative form
      ([dist_ir = None]). Serialization rejects it and orbit
      verification treats it as a blocker. {!build} cannot see what the
      closure reads, so it sets the activity's [reads] to every place,
      in uid order: the executor re-evaluates the activity after every
      marking change, and no wake-up can be missed. [?reads] is ignored.
      Both exist only for the benchmark harness's [two_state] fixture,
      whose [~reads] list is its one place; new code uses
      {!timed_exp_rate_ir}. *)

  val build : t -> model
  (** Freezes the builder. The builder must not be reused afterwards. *)
end

val name : t -> string
val places : t -> Place.t array
val float_places : t -> Place.fl array
val activities : t -> Activity.t array

val n_places : t -> int
(** Total number of places (both kinds). *)

val find_place : t -> string -> Place.t
(** Lookup by exact name; raises [Not_found]. *)

val find_place_opt : t -> string -> Place.t option
val find_float_place_opt : t -> string -> Place.fl option

val find_activity : t -> string -> Activity.t
(** Lookup by exact name; raises [Not_found]. *)

val initial_marking : t -> Marking.t
(** A fresh marking set to the model's initial state: a copy of the
    template {!Builder.build} stores. *)

val dependents : t -> int -> Activity.t list
(** [dependents model uid] lists, in id order, the activities whose
    [reads] hold the place with uid [uid]. {!Builder.build} derives
    every [reads] from the activity's {!Activity.ir_reads}, so these are
    the activities whose guard, declarative distribution or case weights
    read the place, taken branches or not, plus every {!Builder.timed_exp_ir}
    activity, which reads every place. *)

(** {2 Run tables}

    Computed once by {!Builder.build} and shared by every run of the
    model, on every domain. They are read-only: callers must not mutate
    the returned arrays. *)

val dependents_table : t -> Activity.t array array
(** Indexed by place uid ([0 .. n_places - 1]): entry [uid] is
    [Array.of_list (dependents model uid)]. The executor re-evaluates
    exactly these activities after a firing changes place [uid]. *)

val instantaneous_ids : t -> int array
(** Ids of the instantaneous activities, in increasing order. *)

(** {2 The t = 0 template}

    Also computed once by {!Builder.build}: the initial marking and the
    activities enabled in it, so a run starts by copying instead of
    rebuilding and rescanning. *)

val reset_marking : t -> Marking.t -> unit
(** [reset_marking model mk] sets every place of [mk] to its initial
    value and clears [mk]'s journal, in place and without allocating.
    [mk] must have the model's places ([Invalid_argument] otherwise). *)

val initial_instantaneous : t -> int array
(** Ids of the instantaneous activities enabled in the initial marking,
    in increasing order. *)

val initial_timed : t -> int array
(** Ids of the timed activities enabled in the initial marking, in
    increasing order. A timed activity that the initial instantaneous
    firings enable is woken by their propagation, because its guard's
    reads are in its [reads]; so once those firings have settled, every
    enabled timed activity that they have not already scheduled is on
    this list. *)

val all_exponential : t -> bool
(** True when every timed activity's distribution is exponential in every
    reachable marking the caller has checked — practically: evaluated on
    the initial marking. The CTMC generator re-checks per state. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: name, place count, activity count. *)
