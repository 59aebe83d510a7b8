(** Parameters of the ITUA replication-system model.

    Defaults follow Section 4 of the paper (one time unit = one hour):
    cumulative base attack rate 3/h, cumulative false-alarm rate 2/h,
    attack-class split 80/15/5, detection probabilities 0.90/0.75/0.40 for
    hosts and 0.80 for replicas and managers, domain propagation rate (and
    spread effect) 1, system-wide 0.1, corruption multiplier 2, misbehavior
    rate 2/h.

    Two rates the paper does not state are exposed as explicit knobs with
    documented defaults: [ids_decision_rate] (time from an intrusion to
    the IDS detect/miss decision, default 4/h) and [recovery_rate] (the
    management "high-rate" recovery decision, default 100/h).

    The cumulative system-wide attack rate is split across the three
    target classes by the [attack_share_*] fractions (default 70% hosts,
    15% replicas, 15% managers — direct attacks on replicas and managers
    are assumed rarer than OS/service exploits, the multiplier being their
    main corruption path), then evenly over a fixed {e reference}
    population: the Section 4.2/4.3 baseline of 30 hosts and 28 placed
    replicas. The false-alarm rate is divided the same way
    ([false_alarm_share_host]). Per-entity exposure is therefore a
    constant, identical in every configuration of every study — the
    normalization Section 4.2 states ("the probability of a successful
    intrusion into a host is assumed to be the same in all
    experiments"). *)

type exclusion_policy = Domain_exclusion | Host_exclusion

type t = {
  (* topology *)
  num_domains : int;
  hosts_per_domain : int;
  num_apps : int;
  num_reps : int;  (** replicas the middleware starts per application *)
  policy : exclusion_policy;
  (* attack process *)
  attack_rate_system : float;  (** cumulative successful attacks per hour *)
  attack_share_host : float;
      (** share of the cumulative rate aimed at host OS/services *)
  attack_share_replica : float;
  attack_share_manager : float;
  frac_script : float;
  frac_exploratory : float;
  frac_innovative : float;
  corruption_multiplier : float;
      (** factor on replica/manager attack rates when their host is
          corrupt *)
  spread_rate_domain : float;
  spread_effect_domain : float;
  spread_rate_system : float;
  spread_effect_system : float;
  spread_slope : float;
      (** increase of a host's attack rate per unit of accumulated spread
          marking, in multiples of [attack_rate_system / num_hosts]; the
          paper specifies only that the rate "increases linearly with the
          markings" *)
  (* detection *)
  false_alarm_rate_system : float;
  false_alarm_share_host : float;
      (** share of the cumulative false-alarm rate concerning host/manager
          infiltration; the rest are replica-corruption alarms (which, per
          the paper's replica [false_ID] enabling condition, only concern
          already-intruded replicas) *)
  p_detect_script : float;
  p_detect_exploratory : float;
  p_detect_innovative : float;
  p_detect_replica : float;
  p_detect_manager : float;
  ids_decision_rate : float;
  ids_latency_stages : int;
      (** Erlang stages of the IDS decision latency; 1 (default) is
          exponential. Higher values keep the same mean decision time
          [1/ids_decision_rate] but make it less variable. The paper notes
          its model used "non-exponentially distributed firing times for
          some activities", which is why it was simulated rather than
          solved; this knob reproduces that regime (the CTMC path rejects
          models with [ids_latency_stages > 1]). *)
  ids_misses_sticky : bool;
      (** ablation switch. [true] (the model default): a missed detection
          is final — the IDS never reconsiders that intrusion. [false]:
          the detection activity keeps retrying, so every intrusion is
          eventually detected and the detection probabilities only stretch
          the time to detection. *)
  misbehave_rate : float;
  (* management *)
  recovery_rate : float;
  quorum_gates_recovery : bool;
      (** ablation switch. [true] (the model default): starting replacement
          replicas requires a trustworthy global manager quorum (fewer than
          a third of running managers corrupt). [false]: recovery proceeds
          regardless, isolating the contribution of management-consensus
          loss to the measures. *)
  spread_outlives_host : bool;
      (** ablation switch. [true] (the model default): attack-spread
          propagation is keyed on the latched ever_attacked flag and
          survives the host's exclusion. [false]: propagation requires the
          corrupted host to still be alive, so fast exclusion quenches the
          spread. *)
  (* calibration *)
  rate_scale : float;
      (** factor applied to every derived per-entity attack and
          false-alarm rate. The thesis behind the paper (its ref. [13])
          holds the exact per-activity rates and is not public; the
          literal per-entity division of the stated cumulative rates
          ([rate_scale = 1.0]) drives domain exclusions ≈2.5× faster than
          the trajectories reported in Figures 3(d)/4(d), which saturates
          the Figure 3 curves. The default 0.4 calibrates the exclusion
          rate to the paper's regime; all shape conclusions are insensitive
          to this factor (see EXPERIMENTS.md). *)
  host_rate_multipliers : float array;
      (** per-host factors on the base host attack rate, indexed by global
          host id (domain-major, [num_hosts] entries) — a heterogeneous
          fleet in which some hosts are harder targets than others. [[||]]
          (the default) means homogeneous (all 1.0). The multiplier
          reaches the model only as each host's attack rate in the
          effect IR, which is where the orbit pass ([Analysis.Orbit])
          sees that two hosts differ. *)
}

val default : t
(** The Section 4 baseline: 10 domains × 3 hosts, 4 applications × 7
    replicas, domain exclusion, and the rates above. *)

val validate : t -> (unit, string) result
val check : t -> t
(** [check p] returns [p] or raises [Invalid_argument]. *)

(* Derived quantities. *)

val num_hosts : t -> int
val placed_replicas_per_app : t -> int
(** [min num_domains num_reps]: one replica per domain per application. *)

val total_placed_replicas : t -> int

val host_attack_rate : t -> float
(** Per-host base rate of successful attacks on the host OS/services
    (constant across topologies; see the normalization note above). *)

val host_rate_multiplier : t -> int -> float
(** [host_rate_multiplier p g] is host [g]'s entry of
    [host_rate_multipliers], or 1.0 when the array is empty. *)

val host_attack_rate_of : t -> int -> float
(** [host_attack_rate_of p g = host_attack_rate p *. host_rate_multiplier
    p g] — the per-host base attack rate of global host [g]. *)

val host_spread_slope : t -> float
(** Increase of the per-host attack rate per unit of accumulated attack
    spread: [spread_slope · attack_rate_system / num_hosts]. Deliberately
    {e not} multiplied by [rate_scale]: the calibration factor applies to
    the spontaneous base rates, while the spread mechanism keeps the
    paper-specified linear law with this slope. *)

val replica_attack_rate : t -> float
val manager_attack_rate : t -> float
val host_false_alarm_rate : t -> float
val replica_false_alarm_rate : t -> float

val to_json : t -> Report.Json.t
(** Every field, in record order (deterministic bytes under
    [Report.Json.to_string]); [policy] renders as ["domain"]/["host"].
    Carried in a serialized model's annotations so [itua_sim --model]
    can rebind the handles ({!Model.rebind}). *)

val of_json : ?at:string -> Report.Json.t -> (t, string) result
(** Inverse of {!to_json}, through {!Report.Json.decode}. Every field
    except [host_rate_multipliers] (absent means [[||]], for files written
    before it existed) is required, and integer fields must be integral;
    the result is {!validate}d. [at] (default ["$"]) is the path of the
    object in its document, e.g. ["$.annotations.params"]; every error
    names a path under it. *)

val pp : Format.formatter -> t -> unit
