(** One benchmark run: a workload repeated for a time budget.

    A run repeats the workload's pass until [seconds] are spent (at least
    three passes; four in a traced run), timing the {!Calibration} kernel
    before each, then reports medians over the passes. Untraced, it
    reports the end-to-end metrics. Traced, passes alternate between
    untraced and traced (to measure the tracing overhead), then the layer
    probes run under their own span root, and it reports the per-layer
    metrics. *)

type result = {
  workload : string;
  seed : int64;
  traced : bool;
  passes : int;
  metrics : (Catalog.spec * float) list;
  raw : (string * float) list;
      (** untraced: [wall_s] and [setup_s] before scaling, and the
          calibration kernel's median time *)
  checks : (string * bool) list;
  notes : (string * bool) list;
  stats : (string * float) list;
  digest : string;  (** MD5 of the first pass's rendered results *)
  snapshot : string option;
      (** traced: the executor profile's [itua-metrics/1] snapshot *)
}

val run :
  Workloads.t -> seed:int64 -> seconds:float -> trace:bool -> result * Spans.t
(** Runs the workload; returns the spans recorded (none when untraced). *)

val failed : result -> string list
(** Names of the checks that failed. *)

val to_json : result -> Report.Json.t
(** The [itua-bench-result/1] record: workload, seed, trace, passes,
    metric values, raw times, check tally and digest. [itua_bench
    compare] reads these. *)

val contract_json : result -> Report.Json.t
(** [{"correct", "attempted", "failed", "metrics"}], each metric with
    its value and unit. *)

val print : result -> unit
(** Check, note, stat and raw lines, one [name value unit] line per
    metric, then {!to_json} and, last, {!contract_json}. *)

val write_trace : string -> result -> Spans.t -> unit
(** Chrome trace-event JSONL of every span, then the snapshot as an
    ["itua-metrics"] metadata event. *)
