(** Trajectory recording: capture the runs that break.

    A {!sink} attaches to replications as an {!Observer.t} and records
    every firing into a reusable scratch buffer — time, activity, case,
    and the marking deltas the firing caused (read from the marking
    journal, which is still valid when [on_fire] runs). At the end of
    each replication, {!offer} decides whether to {e retain} the run:
    trajectories matching the sink's predicate (e.g. "some application
    latched a Byzantine failure") and those that don't are kept in two
    separate bounded samples of at most [k] each, so memory stays bounded
    at any replication count.

    Retention is a deterministic reservoir: replication [i] survives iff
    its priority [Splitmix64.mix i] is among the [k] smallest of its
    class. Priorities depend only on the replication index, so the
    retained set is independent of domain count and merge order — the
    property behind the bit-identical [--cores 1] vs [--cores N]
    guarantee (see {!Runner.run}'s [?record]).

    Alongside retained runs the sink accumulates {e occupancy statistics}
    per place — time-weighted mean and max tokens, and first-hit times
    (when the place first became non-zero) — over {e all} replications,
    not just retained ones.

    A sink is not domain-safe; like {!Metrics}, the runner gives each
    segment of replications its own {!fork} and {!merge}s them back in a
    fixed global order. *)

type change = { place : string; value : float }
(** A place's {e new} value after a firing (or at setup, for {!t.init}). *)

type step = {
  time : float;
  activity : string;
  case : int;
  changes : change list;  (** one entry per place the firing changed *)
}

type t = {
  rep : int;  (** replication index *)
  matched : bool;  (** the sink's predicate held at some point *)
  events : int;  (** total firings, including any beyond [max_steps] *)
  horizon : float;  (** the time [on_finish] observed *)
  init : change list;  (** non-zero places after t = 0 setup *)
  steps : step list;  (** at most [max_steps] recorded firings *)
}
(** One retained replication. [steps] is shorter than [events] only when
    the run exceeded the sink's [max_steps] cap. *)

type place_stats = {
  place : string;
  mean_tokens : float;  (** time-weighted mean over all replications *)
  max_tokens : float;  (** maximum value ever observed *)
  hit_runs : int;  (** replications where the place was ever non-zero *)
  mean_first_hit : float;
      (** mean time of first becoming non-zero, over [hit_runs]; [nan]
          when the place was never hit *)
}

type sink

val sink :
  ?k:int ->
  ?max_steps:int ->
  ?predicate:(San.Marking.t -> bool) ->
  model:San.Model.t ->
  unit ->
  sink
(** [k] bounds each retained sample (default 10; 0 disables retention but
    keeps occupancy statistics). [max_steps] caps recorded steps per run
    (default 100_000). [predicate] is evaluated after setup and after
    every firing with latch ("ever") semantics; without one, no run
    matches. [Invalid_argument] on negative [k]/[max_steps] or a model
    with no places. *)

val observer : sink -> Observer.t
(** The recording observer. Attach exactly one per concurrently running
    replication — the sink's scratch state is per-run. *)

val offer : sink -> rep:int -> unit
(** Account the just-finished replication (it must have run to
    [on_finish] under {!observer}) and retain its trajectory if its
    priority qualifies. [rep] must be unique across all offers into a
    merged family of sinks. *)

val fork : sink -> sink
(** A fresh empty sink with the same configuration, sharing no mutable
    state — safe to use from another domain. *)

val merge : into:sink -> sink -> unit
(** Folds retained samples and occupancy totals of the source into
    [into]. Retention commutes (bottom-[k] of a union); occupancy floats
    add in call order, so merge in a fixed order for reproducible sums.
    [Invalid_argument] if the sinks were built for different models. *)

val runs : sink -> int
val matched_runs : sink -> int

val matching : sink -> t list
(** Retained predicate-matching trajectories, by replication index. *)

val non_matching : sink -> t list

val retained : sink -> t list
(** [matching @ non_matching], sorted by replication index. *)

val occupancy : sink -> place_stats list
(** Per-place statistics over all replications, in model (uid) order. *)

(** {1 JSON}

    The schema used in [--record-failures] JSONL files (documented in
    [doc/OBSERVABILITY.md]): [init] and [changes] are arrays of
    [["place", value]] pairs; steps are
    [{"t":..,"act":..,"case":..,"changes":[..]}]. *)

val to_json : t -> Report.Json.t

val of_json : Report.Json.t -> (t, string) result
(** Round-trips {!to_json} exactly (the deterministic float rendering of
    {!Report.Json} loses no precision). Decodes through
    {!Report.Json.decode}: errors are located ([$.steps[3].case: expected
    an integer, got 1.5]). *)

val occupancy_to_json : place_stats list -> Report.Json.t

val occupancy_of_json :
  ?at:string -> Report.Json.t -> (place_stats list, string) result
(** Inverse of {!occupancy_to_json}; [at] (default ["$"]) is the path of
    the array in its document, e.g. ["$.occupancy"]. *)

(** The fields [explain] reads from the header line of a
    [--record-failures] file. *)
type header = {
  reps : int;
  matched_runs : int;
  occupancy : place_stats list option;
}

val header_of_json : Report.Json.t -> (header option, string) result
(** Decodes line 1 of a [--record-failures] file: [None] when it has no
    ["schema"] field (a headerless file, whose line 1 is a trajectory),
    a located error for an unknown schema or a mistyped field
    ([$.matched_runs: expected an integer, got 1.5]). *)
