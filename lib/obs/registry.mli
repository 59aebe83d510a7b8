(** The unified metrics registry: named counters, gauges and
    log-bucketed histograms grouped into scopes, with deterministic
    [itua-metrics/1] JSON snapshots.

    A registry is a passive store written at {e export} time — the hot
    engine paths keep counting into their own flat scratch
    ({!Sim.Metrics}, the executor's run-local arrays) and dump into a
    registry only when a snapshot is wanted, so simulation with no
    snapshot configured pays nothing.

    {2 Determinism and the volatile flag}

    A snapshot must be byte-identical across [--cores 1] and
    [--cores N] for the same seed, the same discipline as trajectory
    recording. Counters and histograms only ever hold integers (or
    integer-valued floats below 2{^53}, whose partial sums are exact),
    so additive merging is order-independent and the deterministic
    claim holds structurally. Metrics whose value depends on wall-clock
    time or the GC — throughput, self-times, collection counts — are
    registered [~volatile:true] and can be omitted from a snapshot with
    [to_json ~volatile:false], which is what the determinism test pins.

    {2 Merging}

    Per-domain registries (or per-domain engine sinks exported into
    one) merge by metric name: counters and histograms add; a gauge
    combines by its declared policy ([`Sum], [`Max] or [`Min]).
    Registering the same name twice in one scope returns the same
    handle, so export functions are idempotent targets. *)

type t
type scope
type counter
type gauge
type histogram

val create : unit -> t
(** An empty registry. Not domain-safe: give each domain its own and
    {!merge} afterwards (as {!Sim.Runner} does with engine sinks). *)

val scope : t -> string -> scope
(** [scope t name] is the named metric group, created on first use.
    Scope names sort lexicographically in snapshots. *)

val counter : ?volatile:bool -> scope -> string -> counter
(** A monotone integer counter (default [volatile:false]). *)

val gauge :
  ?volatile:bool -> ?merge:[ `Sum | `Max | `Min ] -> scope -> string -> gauge
(** A float gauge holding the last value {!set} (or the sum of
    {!gauge_add}s). [merge] (default [`Max]) says how two registries'
    values combine. *)

val histogram : ?volatile:bool -> scope -> string -> histogram
(** A base-2 log-bucketed histogram: observation [v] lands in the
    first bucket with upper bound [2^i >= v] (all non-positive values
    in bucket [le 1]); count, sum, min and max are tracked exactly. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val gauge_add : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val observe_raw :
  histogram ->
  counts:int array ->
  n:int ->
  sum:float ->
  min_:float ->
  max_:float ->
  unit
(** Fold pre-bucketed data into the histogram: [counts.(i)] adds to
    bucket [i] (indices beyond the bucket range land in the last
    bucket). For export paths that already bucketed on the hot path. *)

val merge : into:t -> t -> unit
(** Merge every metric of the source into [into] by scope and metric
    name, creating missing ones. Raises [Invalid_argument] when the
    same name is registered with different kinds. *)

val to_json : ?volatile:bool -> ?extra:(string * Report.Json.t) list -> t
  -> Report.Json.t
(** The [itua-metrics/1] snapshot: scopes sorted by name, metrics
    sorted by name within each scope, rendered deterministically by
    [Report.Json]. [~volatile:false] omits volatile metrics (the
    deterministic core). [extra] fields are appended to the top-level
    object after ["scopes"]. Non-finite gauge values render as
    [null]. *)

val write : ?volatile:bool -> ?extra:(string * Report.Json.t) list
  -> string -> t -> unit
(** [write path t] saves {!to_json} as a single JSON line. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table of every scope and metric, in snapshot order
    (volatile ones included): the text view of a snapshot, printed by
    [itua-sim run --telemetry]. Non-finite gauges print as [nan] or
    [inf]. *)
