(** Reward variables: the measures estimated from a simulation run.

    The taxonomy follows Möbius reward variables: rate rewards (functions
    of the marking) evaluated at an instant of time or accumulated over an
    interval, and impulse rewards earned at activity firings. Two extra
    shapes used by the ITUA measures are provided: {e ever} (did a
    predicate hold at any point — the paper's unreliability) and {e final}
    (a function of the marking at the horizon — used for measures recorded
    into accumulator places).

    A [spec] is a pure description; {!instantiate} produces the per-run
    observer plus a function extracting the replication's value. A value
    may be [nan] to mean "undefined in this replication" (e.g. the
    fraction of corrupt hosts in an excluded domain when no domain was
    excluded); the runner aggregates over defined values only and reports
    how many replications were defined. *)

type spec = {
  name : string;
  kind : kind;
}

and kind =
  | Time_average of {
      f : San.Marking.t -> float;
      from_ : float;
      until : float;
    }
      (** (1/(until-from)) ∫ f(marking(t)) dt over [from, until]: the
          paper's interval-of-time measures, e.g. unavailability with [f]
          the improper-service indicator. *)
  | Integral of { f : San.Marking.t -> float; from_ : float; until : float }
      (** ∫ f dt without normalization. *)
  | Instant of { f : San.Marking.t -> float; at : float }
      (** f(marking(at)), right-continuous (after any firings at [at]). *)
  | Ever of { pred : San.Marking.t -> bool; until : float }
      (** 1.0 if [pred] held at any instant in [0, until], else 0.0:
          unreliability. Tested at t=0 and after every firing. *)
  | First_passage of { pred : San.Marking.t -> bool }
      (** Time at which [pred] first held; [nan] if it never did. *)
  | Impulse of {
      f : San.Activity.t -> int -> San.Marking.t -> float;
      from_ : float;
      until : float;
    }
      (** Sum of [f activity case marking] over firings in the window
          ([marking] is post-firing). *)
  | Final of { f : San.Marking.t -> float }
      (** f of the marking at the horizon. *)
  | Custom of { make : unit -> Observer.t * (unit -> float); window : float }
      (** Escape hatch: [make] builds a fresh per-replication observer and
          a value extractor; [window] is the latest time it observes (for
          horizon validation). Used for measures that need bespoke latching,
          e.g. a mean over per-application first-passage indicators. *)

val time_average :
  name:string -> ?from_:float -> until:float -> (San.Marking.t -> float) ->
  spec

val probability_in_interval :
  name:string -> ?from_:float -> until:float -> (San.Marking.t -> bool) ->
  spec
(** Time-averaged indicator: fraction of the interval during which the
    predicate held. *)

val instant : name:string -> at:float -> (San.Marking.t -> float) -> spec
val ever : name:string -> until:float -> (San.Marking.t -> bool) -> spec
val first_passage : name:string -> (San.Marking.t -> bool) -> spec
val final : name:string -> (San.Marking.t -> float) -> spec

val impulse :
  name:string -> ?from_:float -> until:float ->
  (San.Activity.t -> int -> San.Marking.t -> float) -> spec

val custom :
  name:string -> window:float ->
  (unit -> Observer.t * (unit -> float)) -> spec

val latest_time : spec -> float
(** The last time the spec observes ([infinity] for [First_passage] and
    [Final] is not required; returns the window end, or 0 for shapes that
    only need the horizon). Used by the runner to check the horizon covers
    every reward window. *)

type instance
(** Per-replication estimator state. *)

val instantiate : spec -> instance
val observer : instance -> Observer.t
val value : instance -> float
(** The replication's value; call after the run finished. *)
