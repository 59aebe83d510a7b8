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
      structural analysis reads it exactly. Activity names must be
      unique and at least one case is required; [Invalid_argument]
      otherwise. Timed activities default to the {!Activity.Resample}
      policy (see {!Activity.policy} for why that is the safe default
      under marking-dependent rates). *)

  val activity_ir :
    t ->
    name:string ->
    timing:Activity.timing ->
    guard:Effect.cond ->
    reads:Place.any list ->
    Activity.case list ->
    unit

  val timed_ir :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    dist:(Marking.t -> Dist.t) ->
    guard:Effect.cond ->
    reads:Place.any list ->
    Activity.case list ->
    unit

  val timed_exp_ir :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    rate:(Marking.t -> float) ->
    guard:Effect.cond ->
    reads:Place.any list ->
    Effect.t ->
    unit

  val timed_exp_cases_ir :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    rate:(Marking.t -> float) ->
    guard:Effect.cond ->
    reads:Place.any list ->
    (float * Effect.t) list ->
    unit

  val instantaneous_ir :
    t ->
    name:string ->
    guard:Effect.cond ->
    reads:Place.any list ->
    Effect.t ->
    unit

  (** {2 Fully-declarative activities}

      These variants additionally take the timing distribution as
      {!Activity.dist_ir} data (and case weights as {!Effect.rexpr}),
      so the whole activity — guard, timing, weights, effects — is
      serializable ([Serial], [itua_sim save]). The derived sampling
      closures are bit-identical to hand-written ones. *)

  val timed_dist_ir :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    dist:Activity.dist_ir ->
    guard:Effect.cond ->
    reads:Place.any list ->
    Activity.case list ->
    unit

  val timed_exp_rate_ir :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    rate:Effect.rexpr ->
    guard:Effect.cond ->
    reads:Place.any list ->
    Effect.t ->
    unit
  (** Single-case exponential activity with a declarative rate. *)

  val timed_exp_cases_rate_ir :
    t ->
    name:string ->
    ?policy:Activity.policy ->
    rate:Effect.rexpr ->
    guard:Effect.cond ->
    reads:Place.any list ->
    (float * Effect.t) list ->
    unit
  (** Exponential activity with constant-probability cases; each weight
      is recorded declaratively as [Effect.RConst]. *)

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
(** [dependents model uid] lists, in id order, the activities that
    declared the place with uid [uid] in their [reads], and the
    instantaneous activities whose guard reads it
    ([Effect.cond_reads a.guard]) even if undeclared. A timed
    activity's entries are its declared reads only. *)

(** {2 Run tables}

    Computed once by {!Builder.build} and shared by every run of the
    model, on every domain. They are read-only: callers must not mutate
    the returned arrays. *)

val dependents_table : t -> Activity.t array array
(** Indexed by place uid ([0 .. n_places - 1]): entry [uid] is
    [Array.of_list (dependents model uid)], guard reads of instantaneous
    activities included. The executor re-evaluates exactly these
    activities after a firing changes place [uid]. *)

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
(** Ids, in increasing order, of the timed activities enabled in the
    initial marking, plus every timed activity whose guard reads a place
    outside its declared [reads]. The executor never re-evaluates the
    latter after a marking change, so with them the list is exact for
    t = 0 scheduling: once the initial instantaneous firings have
    settled, every enabled timed activity that they have not already
    scheduled is on it. *)

val all_exponential : t -> bool
(** True when every timed activity's distribution is exponential in every
    reachable marking the caller has checked — practically: evaluated on
    the initial marking. The CTMC generator re-checks per state. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: name, place count, activity count. *)
