(** Engine telemetry: cheap counters collected by the executor.

    A [Metrics.t] is a passive sink: pass one to {!Executor.run} (or to
    {!Runner.run} / {!Runner.run_until}, which thread one per domain and
    merge) and it accumulates, across every run recorded into it:

    {ul
    {- per-activity firing, cancellation (disabled-abort) and resample
       counts — the first thing to look at when a model misbehaves (a
       never-firing activity is usually a missing read or a wrong
       enabling predicate);}
    {- instantaneous-stabilization chain statistics (chains, total steps,
       longest chain);}
    {- event-heap statistics (pops, summed and maximum depth);}
    {- wall-clock time, added by the caller via {!add_wall}, from which
       {!events_per_sec} derives the engine's throughput.}}

    Every view of a sink is a rendering of its {!export}: the
    [itua-metrics/1] snapshot ({!Obs.Registry.write}) and the text table
    ({!Obs.Registry.pp}).

    The executor counts unconditionally into run-local scratch and folds
    it into the sink once per run, so simulation with no metrics attached
    pays nothing on the hot path. A sink is not domain-safe: give each
    domain its own (as {!Runner} does) and {!merge} afterwards. *)

type t = {
  names : string array;  (** activity names, indexed by activity id *)
  firings : int array;
      (** per-activity completions, t = 0 setup firings included *)
  cancellations : int array;
      (** per-activity aborts of a scheduled completion by disabling *)
  resamples : int array;
      (** per-activity re-draws under the [Resample] policy *)
  mutable runs : int;  (** executor runs recorded *)
  mutable events : int;  (** firings as counted by {!Executor.outcome} *)
  mutable setup_events : int;  (** t = 0 setup stabilization firings *)
  mutable chains : int;  (** stabilization episodes with >= 1 firing *)
  mutable chain_steps : int;  (** total instantaneous steps in chains *)
  mutable max_chain : int;  (** longest single stabilization chain *)
  mutable pops : int;  (** event-heap pops *)
  mutable stale_pops : int;
      (** Always 0: canceling removes a heap entry, so no pop is stale.
          Kept, with {!stale_fraction}, for readers of older snapshots. *)
  mutable depth_sum : int;
      (** sum over pops of the pre-pop heap size (scheduled activities) *)
  mutable max_depth : int;  (** largest pre-pop heap size seen *)
  mutable wall_seconds : float;  (** wall time added via {!add_wall} *)
  run_events : int array;
      (** base-2 log-bucketed histogram of per-run event counts *)
  mutable min_run_events : int;  (** smallest per-run event count *)
  mutable max_run_events : int;  (** largest per-run event count *)
}

val create : model:San.Model.t -> t
(** A zeroed sink sized for (and labelled with) [model]'s activities. *)

val reset : t -> unit
(** Zero every counter, keeping the activity names. *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds every counter of [src] into [into]. The two
    sinks must come from models with the same activity count
    ([Invalid_argument] otherwise). *)

val add_wall : t -> float -> unit
(** Add elapsed wall-clock seconds (callers time the enclosing run). *)

val record_run :
  t ->
  firings:int array ->
  cancellations:int array ->
  resamples:int array ->
  events:int ->
  setup_events:int ->
  chains:int ->
  chain_steps:int ->
  max_chain:int ->
  pops:int ->
  depth_sum:int ->
  max_depth:int ->
  unit
(** Fold one executor run into the sink. Called by {!Executor.run};
    rarely useful directly. *)

val events_per_sec : t -> float
(** [events / wall_seconds]; [nan] while no wall time was added, and
    [nan] (never [inf] or timer garbage) when the recorded wall time is
    below a microsecond — snapshot writers render that as [null]. *)

val stale_fraction : t -> float
(** [stale_pops / pops]: 0 by construction, [nan] before the first pop.
    Wasted scheduling work shows in [cancellations] and [resamples]
    instead. *)

val never_fired : t -> string list
(** Names of activities that never fired in any recorded run, in model
    order. With enough replications behind the sink, a structurally
    relevant activity in this list is usually a modeling bug. *)

val export : t -> into:Obs.Registry.t -> unit
(** Dump the sink into a metrics registry: deterministic engine
    counters and the per-run event histogram into scope ["engine"],
    per-activity counters into scope ["activity"], and wall-derived
    throughput figures as volatile gauges. Exporting several sinks into
    one registry accumulates, mirroring {!merge}. *)
