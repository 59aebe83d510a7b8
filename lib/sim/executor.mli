(** The discrete-event executor for SAN models.

    Implements the activity semantics documented in {!San.Activity}:
    instantaneous activities complete before any time passes (one chosen
    uniformly at random when several are enabled), timed activities hold or
    resample their sampled completion times according to their reactivation
    policy, and activities disabled by a marking change are aborted.

    One call to {!run} is one replication. Everything a run mutates — the
    marking, the pending-event heap, the enabled flags and the counters —
    lives in a {!workspace}, reset in place at the start of every run, so
    a caller running many replications of one model reuses one workspace
    and a run allocates no per-model tables. Without [?workspace] a run
    uses a fresh one; it is the same code path. A model can be executed
    concurrently from several domains, each with its own workspace. *)

exception Stabilization_diverged of string
(** Raised when a chain of instantaneous firings exceeds the configured
    bound — almost always a modeling error (an instantaneous activity that
    stays enabled after firing). *)

type config = {
  horizon : float;  (** end of observed time; must be > 0 *)
  max_events : int;  (** guard on total firings; default 10^9 *)
  max_inst_chain : int;
      (** guard on consecutive instantaneous firings; default 10^6 *)
  stop : (San.Marking.t -> bool) option;
      (** optional early-stop predicate, checked after every firing; the
          final marking is still reported as persisting to the horizon *)
}

val config : ?max_events:int -> ?max_inst_chain:int ->
  ?stop:(San.Marking.t -> bool) -> horizon:float -> unit -> config

type outcome = {
  end_time : float;  (** time of the last firing (or 0 if none) *)
  events : int;  (** number of firings, excluding t = 0 setup *)
  stopped_early : bool;  (** the stop predicate halted the run *)
  final : San.Marking.t;
      (** marking at the horizon: the workspace's own marking, valid until
          the workspace's next run (copy it to keep it longer) *)
}

type workspace
(** The mutable state of a run, bound to one model: its marking, its
    pending-event heap, the enabled flags of its instantaneous
    activities, the generation stamps of propagation and the
    per-activity counters. Every run resets it from the model's t = 0
    template ({!San.Model.reset_marking}) or from a checkpoint, so a
    workspace can be reused after any run: finished, crossed, or one
    that raised (such as {!Stabilization_diverged}). A workspace is not
    domain-safe: give each domain its own. *)

val workspace : San.Model.t -> workspace
(** [workspace model] is a fresh workspace for runs of [model]. Passing it
    with any other model (even one with the same places and activities)
    raises [Invalid_argument], as checkpoints do. *)

val run :
  ?workspace:workspace ->
  ?metrics:Metrics.t ->
  ?profile:Obs.Profile.t ->
  ?check_invariants:(San.Marking.t -> unit) ->
  model:San.Model.t ->
  config:config ->
  stream:Prng.Stream.t ->
  observer:Observer.t ->
  unit ->
  outcome
(** Executes one replication, in [workspace] when given and otherwise in
    a fresh one. [metrics], when given, accumulates the
    run's telemetry (per-activity firing/cancellation/resample counters,
    stabilization-chain and event-heap statistics — see {!Metrics});
    without it the run pays no instrumentation cost beyond a handful of
    run-local integer bumps.

    [profile], when given, attributes monotonic wall-clock self-time to
    the engine phases of {!Obs.Profile.phase} (delay sampling, heap push
    and pop, propagation, stabilization, checkpoint cloning). Without it
    each instrumented site costs a single option match. The profiler is
    not domain-safe: give each domain its own ({!Obs.Profile.fork}) and
    merge afterwards, as {!Runner} does.

    [check_invariants], when given, is the opt-in invariant-guard mode:
    it is called on every {e stable} marking — once after t = 0 setup
    and again after each timed firing's instantaneous chain settles —
    and is expected to raise (e.g.
    [Analysis.Structure.Invariant_violation]) when a marking breaks an
    invariant the structural analysis proved. Vanishing markings passed
    through during stabilization are never checked, matching the
    convention of reward variables. The guard adds one closure call per
    event; leave it off for production runs. *)

(** {1 Checkpointing}

    Support for the splitting engine ({!Splitting}): a run can be halted
    the moment its marking up-crosses an importance level, its state
    captured, and any number of independent clones resumed from the
    capture — each with its own PRNG stream, so the clones explore
    different continuations of the same prefix.

    A checkpoint snapshots everything that determines the future of a
    replication {e except} randomness: the marking, the pending-event
    heap (sampled completion times and their insertion order are part
    of the state), and the clock. It is immutable and safe to resume
    from concurrently: every resume copies it into its own workspace,
    and a [Crossed] run's checkpoint does not share its workspace.

    A checkpoint also records the model it was taken on, and resumes
    only on that same model value (physical equality): {!resume} and
    {!run_to_level} [~from_] raise [Invalid_argument] for any other
    model, even one with the same places and activities. *)

type checkpoint

val checkpoint_marking : checkpoint -> San.Marking.t
(** The captured marking. The returned value is the checkpoint's own
    snapshot: treat it as read-only. *)

type split_outcome =
  | Finished of outcome  (** ran to horizon / stop without crossing *)
  | Crossed of { checkpoint : checkpoint; events : int }
      (** the importance threshold was reached at a stable marking;
          [events] counts firings executed by this (partial) run *)

val run_to_level :
  ?workspace:workspace ->
  ?metrics:Metrics.t ->
  ?profile:Obs.Profile.t ->
  ?from_:checkpoint ->
  ?check_invariants:(San.Marking.t -> unit) ->
  model:San.Model.t ->
  config:config ->
  stream:Prng.Stream.t ->
  observer:Observer.t ->
  importance:(San.Marking.t -> int) ->
  threshold:int ->
  unit ->
  split_outcome
(** Runs until [importance marking >= threshold], the horizon, the stop
    predicate, or event exhaustion — whichever comes first. Starts from
    the model's initial marking, or from [from_] when resuming a clone.

    [importance] is evaluated on {e stable} markings only: once at the
    start (so a checkpoint already at or above [threshold] crosses
    immediately, which is how multi-level jumps are handled), and after
    each timed firing once its instantaneous chain has stabilized.
    Markings that are merely passed through during stabilization are
    never measured — matching the convention of reward variables and
    {!Ctmc.Measure}.

    On [Crossed], the observer does {e not} receive the final horizon
    advance or [on_finish]: the trajectory is unfinished by design. *)

val resume :
  ?metrics:Metrics.t ->
  ?profile:Obs.Profile.t ->
  ?check_invariants:(San.Marking.t -> unit) ->
  model:San.Model.t ->
  config:config ->
  stream:Prng.Stream.t ->
  observer:Observer.t ->
  checkpoint ->
  outcome
(** Continues a checkpointed replication to the horizon with no further
    level checks. [outcome.events] counts only the resumed segment's
    firings; [end_time] is the last firing time (or the checkpoint time
    if nothing fires). Resuming the same checkpoint with the same stream
    is bit-reproducible, and a [run] is bit-identical to a
    [run_to_level] plus a [resume] driven by the same stream object. *)
