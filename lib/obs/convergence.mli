(** Estimator-convergence recorder: CI half-width vs. replication
    count, per measure.

    Sequential stopping ("run until every relative half-width is below
    P") is only auditable if the trajectory that led to the stop is
    kept: how fast each measure's interval shrank, which measure was
    binding, and whether the 1/√n regime had set in before the stop.
    A recorder accumulates [(measure, n, value, half_width)] points —
    {!Sim.Runner} records one per measure per chunk/batch, splitting
    exports one per completed stage, and the CTMC solvers record their
    iteration deltas — and renders them as the ["convergence"] block of
    an [itua-metrics/1] snapshot.

    Points are recorded from the coordinating thread only (after
    per-domain results merge), so a recorder needs no synchronization
    and the recorded estimates are the deterministic merged ones. *)

type point = {
  measure : string;
  n : int;  (** replications / trials / iterations behind the value *)
  value : float;  (** current estimate (or solver residual) *)
  half_width : float;  (** CI half-width; [nan] when not applicable *)
  confidence : float;  (** interval confidence; [nan] when n/a *)
}

type t

val create : unit -> t

val record :
  ?half_width:float -> ?confidence:float -> t -> measure:string -> n:int ->
  value:float -> unit
(** Append one point (defaults: [half_width] and [confidence] nan). *)

val points : t -> point list
(** In record order. *)

val to_json : t -> Report.Json.t
(** Array of point objects; non-finite numbers render as [null]. *)
