(** Failure forensics: compress a recorded trajectory into a labeled
    attack chain.

    {!chain_of_trajectory} replays a {!Sim.Trajectory.t} of an ITUA model
    run against the model's place-naming scheme and emits the
    ITUA-meaningful transitions as {!event}s, in chronological order —
    host intrusions (with the attack class), IDS detections and misses,
    manager and replica corruption, convictions, exclusions (with the
    corrupt-host count the exclusion effect recorded), recoveries, and
    the failure conditions behind the paper's measures (a replication
    group turning improper, an application starving). The result renders
    as a one-line arrow chain, e.g.:

    {v rep 1723 (failed @3.91h): host d0.h2 intruded (exploratory) @2.10h
    → intrusion on host d0.h2 missed by IDS @2.41h → … → domain 0
    excluded (1/3 hosts corrupt) @3.40h → app 2 improper (1 corrupt of 2
    running) @3.91h v}

    The replay needs only the trajectory — places it never saw change are
    taken as zero, matching the recorder's contract that [init] lists
    every place that is non-zero after setup. *)

type event =
  | Host_intrusion of { domain : int; host : int; klass : string; time : float }
      (** [klass] is ["script"], ["exploratory"] or ["innovative"] *)
  | Host_detected of { domain : int; host : int; time : float }
  | Host_missed of { domain : int; host : int; time : float }
      (** the IDS missed the intrusion — final, per the sticky-miss rule *)
  | Manager_corrupted of { domain : int; host : int; time : float }
  | Manager_detected of { domain : int; host : int; time : float }
  | Replica_corrupted of { app : int; replica : int; time : float }
  | Replica_convicted of { app : int; replica : int; time : float }
  | Host_excluded of { domain : int; host : int; time : float }
      (** the host was shut down (by either exclusion policy) *)
  | Domain_excluded of {
      domain : int;
      corrupt : int;  (** corrupt hosts among those shut down *)
      hosts : int;  (** hosts shut down by this exclusion *)
      time : float;
    }
  | Recovery of { app : int; time : float }
  | App_improper of {
      app : int;
      corrupt : int;  (** undetected corrupt replicas *)
      running : int;  (** running replicas *)
      time : float;
    }  (** the Byzantine latch ([rep_grp_failure]) was set *)
  | App_starved of { app : int; time : float }
      (** the application lost its last running replica *)

type chain = {
  rep : int;
  matched : bool;  (** as recorded by the capturing sink's predicate *)
  horizon : float;
  events : event list;  (** chronological *)
  time_to_failure : float option;
      (** time of the first {!App_improper} or {!App_starved}, if any *)
}

val chain_of_trajectory : Sim.Trajectory.t -> chain

type summary = {
  chains : int;
  failed : int;  (** chains with a defined [time_to_failure] *)
  ttf_mean : float;  (** over failed chains; [nan] when none *)
  ttf_min : float;
  ttf_max : float;
}

val summarize : chain list -> summary

val failed_now : Model.handles -> San.Marking.t -> bool
(** [failed_now h m]: some application is currently improper
    ({!Model.improper}) — the live capture predicate behind
    [--record-failures]. Combined with the recorder's latch semantics it
    retains exactly the runs whose unreliability indicator would be 1. *)

val pp_event : Format.formatter -> event -> unit

val pp_chain : Format.formatter -> chain -> unit
(** One wrapped line: header, then the events joined with [→]. *)

val pp_summary : Format.formatter -> summary -> unit
