(** Same-machine A/B comparison of two sets of runs.

    Runs are paired in order per workload (the i-th parent run with the
    i-th change run; alternate which side runs first). For each workload
    and end-to-end metric:

    {ul
    {- {b regression}: the change's median is worse than the parent's by
       more than the metric's bound (a share of the parent's median);}
    {- {b gain}: the change wins at least nine tenths of the pairs (ties
       count for neither) and the medians differ by more than the
       parent's interquartile range;}
    {- {b unresolved}: neither, and the spread (interquartile range over
       median) of either side is wider than the bound, unless every change
       run beats every parent run;}
    {- {b same}: otherwise.}}

    Fewer than {!min_pairs} pairs give no verdict. *)

type bound = { metric : string; better : Catalog.better; bound : float }
type verdict = Gain | Regression | Unresolved | Same | Too_few
type side = { q1 : float; median : float; q3 : float }

type row = {
  workload : string;
  metric : string;
  pairs : int;
  parent : side;
  change : side;
  wins : int;  (** pairs the change won *)
  verdict : verdict;
}

val min_pairs : int
(** 10. *)

val verdict_to_string : verdict -> string

val judge :
  bound ->
  parent:float list ->
  change:float list ->
  int * side * side * int * verdict
(** [(pairs, parent, change, wins, verdict)] for one metric's samples,
    in run order. *)

val bounds_of_benchmark : Report.Json.t -> (bound list, string) result
(** The [end_to_end] entries of [BENCHMARK.json]. *)

type sample = { s_workload : string; s_metrics : (string * float) list }

val samples_of_results : Report.Json.t list -> sample list
(** The untraced [itua-bench-result/1] records among parsed JSON lines;
    other values are skipped. *)

val compare :
  bounds:bound list -> parent:sample list -> change:sample list -> row list
(** One row per workload (in the parent's order) and bound. *)

val header : string
val pp_row : Format.formatter -> row -> unit
