(** GraphViz export of a SAN's structure.

    The exported edges are the dependency arcs ([reads] lists, which the
    builder derives from the IR), which correspond to the input-arc
    structure of the net. Useful for eyeballing generated
    models, e.g. a small ITUA configuration. *)

val to_dot : ?firings:(string * int) list -> Format.formatter -> Model.t -> unit
(** Writes a [digraph]: places as ellipses (extended places as dashed
    ellipses), timed activities as hollow boxes, instantaneous activities
    as filled boxes, and an edge from each place to each activity that
    reads it.

    [firings] overlays simulation heat: per-activity firing totals (as
    [(activity name, count)] pairs, e.g. zipped from
    [Sim.Metrics.names]/[firings]). Activities render with a pen width
    growing logarithmically with their count (1–6pt) and a
    ["<n> firings"] tooltip; activities that never fired are thin and
    grey. Activities absent from the list are treated as never fired. *)

val write_file : ?firings:(string * int) list -> string -> Model.t -> unit
(** [write_file path model] writes {!to_dot} output to [path]. *)
