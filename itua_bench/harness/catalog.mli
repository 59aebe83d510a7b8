(** Every metric the harness reports, with its unit and direction.

    [BENCHMARK.json] at the repository root lists the same names, units
    and directions (plus the bounds of the end-to-end metrics); a test
    keeps the two in step. *)

type better = Lower | Higher
type spec = { name : string; unit_ : string; better : better }

val end_to_end : spec list
(** Reported by an untraced run: [wall_s] (median wall time of one pass
    of the workload, set-up included), [setup_s] (median model
    construction time per pass), both scaled to the reference machine
    speed ({!Calibration}), and [peak_rss_mb] ([VmHWM] at the end of
    the run). *)

val per_layer : spec list
(** Reported by a traced run, unscaled: the probe metrics of every
    layer, the GC counters and trace overhead of the workload, the
    calibration kernel's median time, and each layer's share of the
    workload's traced wall time. *)

val span_layers : (string * string) list
(** [(span layer, share metric)] for every layer the workload spans are
    tagged with. *)

val better_to_string : better -> string
(** ["lower"] or ["higher"], as in [BENCHMARK.json]. *)

val complete : spec list -> (string * float) list -> (spec * float) list
(** Pairs each spec with its measured value, in spec order. Fails on a
    spec with no measurement and on a measurement with no spec. *)
