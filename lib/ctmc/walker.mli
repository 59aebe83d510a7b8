(** Shared reachable-marking walker.

    Both the CTMC generator ({!Explore}) and the static model checker
    (the [analysis] library) need to enumerate the stable markings a SAN
    can reach and to resolve {e vanishing} markings — markings with
    enabled instantaneous activities — into distributions over stable
    ones. This module is that shared machinery, factored out of
    {!Explore} so the checker can walk models whose timed activities are
    {e not} exponential: reachability only executes effects, it never
    needs rates.

    The walk is purely analytical: a {!San.Effect.Pick} forks into its
    feasible branches instead of drawing randomness, so no random stream
    is ever needed. Effects that would drive a marking negative raise
    [Invalid_argument] from {!San.Marking.set}; {!reachable} skips such
    successors so one broken effect does not hide the rest of the
    space. *)

exception Vanishing_loop of string
(** A chain of instantaneous firings did not terminate. *)

exception Too_many_states of int
(** Enumeration exceeded the caller's state bound. *)

exception Too_wide of int
(** One {!resolve_vanishing} visited more markings than its fixed
    50,000 cap — the symptom of a combinatorial [Pick] cascade. *)

exception Work_budget of int
(** {!reachable} exceeded its [max_work] effort bound before exhausting
    the space — the per-state cost, not the state count, is the
    blow-up. Callers fall back to sampling exactly as for
    {!Too_many_states}. *)

exception Bad_weights of string
(** Some activity's case weights did not sum to a positive number. *)

type key = int array * float array
(** A stable marking, snapshot as hashable arrays. *)

val key_of_marking : San.Marking.t -> key

val restore : San.Model.t -> key -> San.Marking.t
(** A fresh marking holding the keyed state (journal cleared). *)

val enabled_instantaneous :
  San.Model.t -> San.Marking.t -> San.Activity.t list
(** Enabled instantaneous activities, in declaration order. *)

val normalized_weights : San.Activity.t -> San.Marking.t -> float array
(** Case probabilities normalized to sum to 1; raises {!Bad_weights} if
    the weights sum to zero or less. *)

val case_outcomes :
  San.Activity.t -> int -> San.Marking.t -> (float * San.Marking.t) list
(** [case_outcomes a case m] applies case [case]'s effect analytically:
    an {!San.Effect.Pick} forks into its feasible branches with uniform
    weights instead of drawing randomness, so IR effects never need a
    stream. Consumes [m]. A fan-out beyond 4096 outcomes raises
    {!San.Effect.Too_many_outcomes}. *)

val resolve_vanishing :
  ?charge:(unit -> unit) ->
  ?on_vanishing:(San.Marking.t -> San.Activity.t list -> unit) ->
  San.Model.t ->
  San.Marking.t ->
  (key * float) list
(** [resolve_vanishing model m] eliminates chains of instantaneous
    firings starting from [m] (uniform choice among the enabled set,
    case probabilities within each activity, {!San.Effect.Pick} forks
    with uniform weights) and returns the resulting distribution over
    stable markings. [charge] (default a no-op) is invoked once per
    visited marking — {!reachable} uses it to meter its work budget.
    [on_vanishing] is called on every visited
    vanishing marking with its enabled instantaneous set (two or more
    entries is the tie an executor resolves by a coin flip); the
    marking must not be retained without copying. Raises
    {!Vanishing_loop} past 10,000 firings on one path, {!Too_wide}
    past 50,000 visited markings, and {!San.Effect.Too_many_outcomes}
    from {!case_outcomes}. [m] is not modified. *)

(** Growable interning pool of state keys. *)
module Pool : sig
  type t

  val create : unit -> t

  val intern : t -> max_states:int -> key -> int * bool
  (** [(id, fresh)]; raises {!Too_many_states} at the cap. *)

  val size : t -> int
  val get : t -> int -> key
end

val reachable :
  ?max_states:int ->
  ?max_work:int ->
  ?on_vanishing:(San.Marking.t -> San.Activity.t list -> unit) ->
  San.Model.t ->
  key array
(** [reachable model] enumerates every stable marking reachable from the
    initial marking through timed firings (all cases with positive
    weight) and instantaneous resolution, breadth-first. Successors
    whose effect raises [Invalid_argument] (negative marking) are
    skipped; {!Bad_weights} on an activity causes {e all} its cases to
    be explored (the checker reports the weight bug separately).
    [on_vanishing] is forwarded to every {!resolve_vanishing} the walk
    performs, so a caller sees each vanishing marking encountered
    anywhere in the reachable space. Default [max_states] is
    200_000. The walk also meters its total vanishing-resolution
    visits and raises {!Work_budget} past [max_work] (default
    10_000_000): a model whose {e per-state} resolution cost explodes
    (deep instantaneous cascades over hundreds of activities) is
    abandoned deterministically instead of grinding for minutes toward
    the state cap. *)
