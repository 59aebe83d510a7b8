(** Order statistics over run samples.

    {!quartiles} follows Python's [statistics.quantiles(xs, n=4)] (the
    default "exclusive" method) exactly, so spreads computed here agree
    with ones computed by a Python script over the same samples. *)

val median : float list -> float
(** Middle value, or the mean of the two middle values. Raises
    [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)]. Raises [Invalid_argument] below two samples. *)

val percentile : float list -> float -> float
(** Nearest-rank percentile, [p] in [(0, 1]]: the smallest sample with at
    least [p] of the samples at or below it. *)
