(** Replication runner: estimates reward variables over many independent
    terminating simulation runs, with confidence intervals.

    Replication [i] always uses random substream [i] of the given seed, so
    estimates are reproducible and independent of how replications are
    spread across domains (up to floating-point summation order when
    merging per-domain accumulators). *)

type spec = private {
  model : San.Model.t;
  horizon : float;
  rewards : Reward.spec list;
  extra_observers : (unit -> Observer.t) list;
  stop : (San.Marking.t -> bool) option;
  max_events : int;
}

val spec :
  ?extra_observers:(unit -> Observer.t) list ->
  ?stop:(San.Marking.t -> bool) ->
  ?max_events:int ->
  model:San.Model.t ->
  horizon:float ->
  Reward.spec list ->
  spec
(** Validates that [horizon] covers every reward window
    ([Invalid_argument] otherwise) and that at least one reward is
    given. [extra_observers] are fresh-per-replication hooks (invariant
    checkers, traces). *)

type result = {
  name : string;  (** reward name *)
  ci : Stats.Ci.t;
  welford : Stats.Welford.t;
      (** accumulator over the defined (non-nan) replication values *)
  n_defined : int;  (** replications where the reward was defined *)
  n_runs : int;  (** total replications *)
}

type progress = {
  completed : int;  (** replications finished so far *)
  target : int;
      (** [reps] for {!run}; [max_reps] for {!run_until} (which usually
          stops well short of it) *)
  elapsed : float;  (** wall-clock seconds since the call started *)
  eta : float option;
      (** estimated wall-clock seconds to completion: linear scaling for
          {!run}, 1/√n extrapolation of the worst interval for
          {!run_until}; [None] before the first replication *)
  worst_rel_hw : float;
      (** the widest current interval, as judged by {!run_until}'s
          stopping rule: relative half-width, or absolute when the mean
          is 0, or [infinity] while undefined (n < 2) *)
  cis : (string * Stats.Ci.t) list;
      (** current interval per reward, in spec order *)
}
(** A progress report, passed to the [?progress] callback after every
    chunk ({!run}) or batch ({!run_until}) of replications. Callbacks run
    on the calling domain, between batches — never concurrently. *)

val run_one :
  ?workspace:Executor.workspace ->
  ?metrics:Metrics.t ->
  ?profile:Obs.Profile.t ->
  ?record:Trajectory.sink * int ->
  spec ->
  Prng.Stream.t ->
  float array
(** One replication, in [workspace] when given (see
    {!Executor.workspace}); returns the reward values in spec order. [record]
    attaches the sink's recording observer and, once the run finishes,
    offers the trajectory for retention under the given replication
    index. *)

val run :
  ?domains:int ->
  ?confidence:float ->
  ?metrics:Metrics.t ->
  ?profile:Obs.Profile.t ->
  ?convergence:Obs.Convergence.t ->
  ?progress:(progress -> unit) ->
  ?record:Trajectory.sink ->
  seed:int64 ->
  reps:int ->
  spec ->
  result list
(** [run ~seed ~reps spec] executes [reps] replications and aggregates.
    [domains] > 1 spreads replications over that many OCaml domains
    (default 1). Results come back in spec order.

    [metrics] accumulates engine telemetry over every replication (each
    domain counts into its own sink; they are merged here, and the
    call's wall-clock time is added — see {!Metrics}). [profile]
    attributes phase self-times the same way: each domain block runs on
    its own {!Obs.Profile.fork} (spans labelled with the block's worker
    index), captures its GC deltas inside the owning domain, and the
    forks merge back in block order. [convergence] records, per reward
    and per merged chunk, the running estimate and CI half-width into
    the given recorder — and, like [progress], forces chunked execution
    so a trajectory exists. [progress] is called after each chunk of
    replications; requesting progress chunks the work (~20 chunks) but
    does not change the estimates, since replication [i] always runs on
    substream [i].

    [record] collects trajectories and occupancy statistics into the
    given {!Trajectory.sink}. Recording is {e bit-deterministic} in the
    domain count: replications accumulate into per-segment sub-sinks (64
    consecutive replications each), domain blocks are aligned to segment
    boundaries, and segments merge back in global order — retained
    trajectories {e and} occupancy sums are identical for any [domains]
    given the same seed. *)

val run_until :
  ?domains:int ->
  ?confidence:float ->
  ?batch:int ->
  ?max_reps:int ->
  ?metrics:Metrics.t ->
  ?profile:Obs.Profile.t ->
  ?convergence:Obs.Convergence.t ->
  ?progress:(progress -> unit) ->
  ?record:Trajectory.sink ->
  rel_precision:float ->
  seed:int64 ->
  spec ->
  result list
(** Sequential stopping, à la Möbius: run replications in batches (default
    500) until {e every} reward's interval satisfies
    [half_width <= rel_precision · |mean|] (rewards whose mean is 0 after a
    batch are judged by absolute half-width against [rel_precision]), or
    [max_reps] (default 100_000) is reached. Replication [i] still uses
    substream [i], so a [run_until] result is a deterministic function of
    the seed and the batch/precision parameters. [metrics], [profile],
    [convergence] and [progress] behave as in {!run}, with [progress]
    called (and convergence points recorded) after every batch — the
    recorded trajectory is exactly the audit trail of the stopping rule.
    [record] behaves as in {!run}, except that it rounds the batch
    size up to a whole number of recording segments (so the stopping
    point can differ from an unrecorded run with the same batch). *)

val default_domains : unit -> int
(** A sensible domain count for this machine (recommended count capped at
    8, at least 1). *)
