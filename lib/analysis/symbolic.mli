(** Exact symbolic reading of {!San.Effect} IR terms.

    The incidence structure of a model is read off the IR syntax tree,
    never observed by firing effects on markings. This module provides
    the three exact readings {!Structure} builds its certificates from:

    {ul
    {- {b Atoms} ({!read_case}): every [Ops] block of a case effect,
       specialized by the guard conditions dominating it, yields one
       exact delta row. The set of atom rows spans every net marking
       change any firing of the case can produce, so semiflows computed
       against them are sound for {e all} reachable behavior — no
       marking enumeration. Deltas that depend on the marking in a way
       guard pinning cannot resolve (e.g. [Set p e] with unknown prior
       value, or [Inc p e] with a non-constant [e]) mark the place
       {e unresolved}; {!Structure} adds a synthetic unit row for such a
       place, which soundly forces its coefficient to zero in every
       semiflow.}
    {- {b Law drifts} ({!case_drifts}): a small abstract interpreter
       over canonical polynomials (in the pre-firing marking and
       indicator atoms [Ind c]) proves that a firing leaves a weighted
       sum [sum k_p . p] unchanged — for {e every} marking and {e every}
       random choice, including effects whose per-branch deltas only
       cancel in combination (conditional increments against a
       guard-summed counter). This is what makes declared-law
       verification exact for IR models.}
    {- {b Branch liveness and range data}: statically dead [If]/[Pick]
       branches (diagnostic A014) and negative increments with their
       guard-pinned priors (input to A015) fall out of the same
       traversal.}} *)

type verdict =
  | Proven  (** drift is identically zero for every marking and path *)
  | Drift of int  (** drift is the same nonzero constant on every path *)
  | Unproven of string  (** the interpreter could not decide; why *)

val case_drifts :
  guard:San.Effect.cond ->
  (int * int) list array ->
  San.Effect.t ->
  verdict array
(** [case_drifts ~guard laws eff] symbolically executes [eff] (guard
    refinements applied first) and returns one verdict per law. Each law
    is a sorted [(int place index, coefficient)] list.

    The environment holds only the places the walk has written or
    pinned, in a persistent map; every other place keeps its
    pre-traversal value. So a walk costs what the effect writes, not
    the number of places in the model. At an [If] the interpreter
    cannot decide, and after a [Pick], a place keeps its value only
    where every branch leaves it the same; any other place becomes
    untrackable, and a later read of it makes the laws it feeds
    [Unproven]. The drifts themselves merge through the branch
    condition's indicator, so a law whose branches drift differently
    but cancel in combination is still proven. *)

type case_ir = {
  ci_deltas : (int * int) list list;
      (** exact atom delta rows: sorted [(place index, delta)] lists,
          zero entries dropped, empty rows dropped *)
  ci_unresolved : int list;
      (** sorted indexes of places written with a statically
          unresolvable delta *)
  ci_float : bool;  (** the effect writes some float place *)
  ci_dead : string list;
      (** one message per statically dead non-[Skip] branch (A014) *)
  ci_decs : (int * int * int option) list;
      (** [(place index, negative delta, guard-pinned prior value)] for
          every resolved decrement — A015 input *)
}

val read_case : guard:San.Effect.cond -> San.Effect.t -> case_ir
(** Exact atom extraction for one case effect. The integer pins (from
    the guard and the conditions dominating an [Ops] block) are a
    persistent map like {!case_drifts}' environment; a join of
    branches unpins every place that either branch wrote. *)

val set_only_bounds : San.Model.t -> int option array
(** Per int place index: an upper bound valid in every reachable
    marking, derived purely from write shapes — a place whose every
    write anywhere in the model is [Set p (Int k)] can never exceed
    [max(initial, max k)]. [None] where no such bound exists (any
    increment or computed set that could write it). *)
