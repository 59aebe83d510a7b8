(** In-memory span recorder for the traced benchmark run.

    The harness wraps every public call it makes into a layer of the
    toolkit ([Itua.Model.build], [Sim.Runner.run], [Ctmc.Explore.explore],
    ...) in a span tagged with that layer. Spans nest by call stack, are
    kept in memory, and are written once the run ends. A layer's
    {e self-time} is its spans' durations minus the time their child spans
    cover, so the self-times under one root add up to the root's duration.

    The recorder is single-domain: only the harness's own thread opens
    spans; calls that fan out over domains are one span each. *)

type span = {
  id : int;  (** dense, in opening order *)
  parent : int;  (** id of the enclosing span; [-1] for a root *)
  layer : string;  (** e.g. ["itua"], ["sim.runner"], ["workload"] *)
  name : string;  (** the public function called *)
  start_ns : int64;  (** monotonic clock *)
  dur_ns : int64;
}

type t

val off : t
(** Records nothing: {!span} just calls its function. *)

val create : unit -> t
(** A fresh, enabled recorder. *)

val span : t -> layer:string -> string -> (unit -> 'a) -> 'a
(** [span t ~layer name f] runs [f] inside a span (exception-safe). *)

val spans : t -> span list
(** Completed spans, in opening order. *)

val self_ns : span list -> (span * int64) list
(** Each span with its self-time: duration minus its children's. *)

val layer_self_seconds : span list -> root_layer:string -> (string * float) list
(** Self-seconds per layer, summed over the spans whose root has layer
    [root_layer] (the root's own self-time is listed under that layer).
    Sorted by layer name. *)

val root_seconds : span list -> root_layer:string -> float
(** Total duration of the root spans with layer [root_layer]. *)

val nested : span list -> bool
(** Every child starts and ends inside its parent. *)

val to_chrome : t -> Report.Json.t list
(** Chrome trace-event objects (["ph":"X"], microsecond [ts]/[dur]
    relative to {!create}), one per span, with the span and parent ids
    under [args]. *)
