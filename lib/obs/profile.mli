(** Phase profiler: monotonic wall-clock self-time per engine phase.

    A profiler attributes elapsed time to a stack of phases: {!enter}
    charges the interval since the last clock reading to the phase that
    was on top, pushes the new phase, and {!leave} pops it — so a
    phase's {e self-time} excludes the time spent in phases nested
    inside it, and the self-times over a run sum to at most the run's
    wall-clock time (pinned by a test). Counts are tracked per phase
    too, making "mean ns per propagate" a one-division read.

    The executor instruments its hot phases (propagate, stabilize,
    sampling, heap push/pop, checkpoint/clone) when — and only when — a
    profiler is passed; with no profiler the only cost is one option
    match per site. The CTMC stack instruments exploration and solver
    iterations the same way.

    With [~spans:true] every completed phase interval is additionally
    recorded as a span (start, duration, phase, tid), at most 200,000
    of them; {!write_trace} renders them as Chrome trace-event JSON
    lines ([chrome://tracing], Perfetto, speedscope) for flamegraph
    viewing.

    Per-run GC statistics are captured as deltas: minor/major
    collections from [Gc.quick_stat], allocated words from the owning
    domain's [Gc.counters]. A profiler is not
    domain-safe: {!fork} one per domain inside the domain and {!merge}
    after joining; call {!gc_capture} inside the owning domain before
    the merge so GC deltas are read from the right domain-local heap
    (as {!Sim.Runner} does). *)

type phase =
  | Propagate  (** dependency re-evaluation after a firing *)
  | Stabilize  (** instantaneous-activity chains *)
  | Sample  (** delay distribution draws *)
  | Heap_push  (** event-heap insertion, re-keying and removal *)
  | Heap_pop  (** event-heap extraction *)
  | Checkpoint  (** checkpoint capture and clone resume (splitting) *)
  | Ctmc_explore  (** state-space generation *)
  | Ctmc_solve  (** steady/transient solver iterations *)

val phases : phase array
(** Every phase, in declaration order. *)

val phase_name : phase -> string
(** Stable snake_case name used in snapshots and trace spans. *)

type t

val create : ?spans:bool -> unit -> t
(** A fresh profiler; [spans] (default false) records per-interval
    spans, at most 200,000 of them — further spans are counted as
    dropped but self-times stay exact. *)

val fork : ?tid:int -> t -> t
(** A fresh profiler with the parent's configuration, for a worker
    domain. [tid] labels its spans (default 0). *)

val enter : t -> phase -> unit
val leave : t -> unit

val span : t -> phase -> (unit -> 'a) -> 'a
(** [span t p f] runs [f] inside phase [p] (exception-safe). *)

val gc_capture : t -> unit
(** Fold the GC-statistics delta since creation (or the previous
    capture) into the profiler's totals. Must run in the domain that
    owns the profiler. Idempotent between phase activity. *)

val merge : into:t -> t -> unit
(** Add self-times, counts, GC totals; append spans. *)

val self_seconds : t -> phase -> float
val count : t -> phase -> int

val attributed_seconds : t -> float
(** Sum of every phase's self-time — at most the enclosing run's
    wall-clock time. *)

val gc_allocated_words : t -> float
(** Words allocated (minor + major - promoted) across captures. *)

val export : t -> into:Registry.t -> unit
(** Fill the registry's ["profile"] scope: per-phase [<p>_self_seconds]
    (volatile gauge), [<p>_count] (counter), the GC totals, and
    [spans_dropped]. Calls {!gc_capture} first. *)

val write_trace : string -> t -> unit
(** Write recorded spans as Chrome trace-event JSONL: one complete
    ("ph":"X") event per line with microsecond [ts] (relative to the
    profiler's creation) and [dur], named by {!phase_name}. Load in
    Perfetto or [chrome://tracing]. *)
