(** Layer probes for the traced run.

    Each probe times public calls into one layer on a fixed input, so that
    layer's cost is measured apart from the others:

    {ul
    {- [itua]: [Itua.Model.build] of the workload's probe configuration
       (median of three).}
    {- [sim.executor]: 1000 [Sim.Executor.run]s at a horizon of 1e-9
       (t = 0 stabilisation and initial scheduling only) and 1000 at the
       full horizon, on the replications [Sim.Runner] would use; engine
       counters from a [Sim.Metrics] sink; phase shares from a separate
       200-run [Obs.Profile] pass; the two-state model's cost per event.}
    {- [sim.runner]: [Sim.Runner.run] with the workload's rewards over
       300 replications against a bare executor loop over the same ones,
       on one domain, and once on two.}
    {- [sim.splitting]: the rare-tail point on one domain and on two, and
       one splitting stage by hand with a profiler on its checkpoint and
       resume calls.}
    {- [ctmc]: the 9-host fleet (19683 states) explored, solved at t = 5
       and explored again orbit-lumped with the audit on.}
    {- [analysis]: the certificate's stages, [Space.build] and the passes
       on 2x2x2x2 and [Structure.analyse] on 3x1x4x7.}} *)

val profile_snapshot : Obs.Profile.t -> string
(** The profiler's [itua-metrics/1] snapshot. [Obs.Profile.export] folds
    in every GC delta up to the moment it is called, so render a snapshot
    as soon as its pass ends. *)

val profile_pass :
  model:San.Model.t ->
  config:Sim.Executor.config ->
  seed:int64 ->
  runs:int ->
  Obs.Profile.t * string * float * int
(** [runs] profiled executor runs: the profiler, its snapshot rendered at
    the end of the pass, the pass's wall seconds and its event count. *)

val allocated_words : unit -> float
(** Words allocated by this domain so far, from [Gc.counters]. *)

val all :
  Spans.t -> Workloads.t -> seed:int64 -> (string * float) list * string
(** Every probe, each in a span under one ["probe"] root: the per-layer
    values, named as in {!Catalog.per_layer}, and the executor profile's
    snapshot. *)
