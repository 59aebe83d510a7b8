type exclusion_policy = Domain_exclusion | Host_exclusion

type t = {
  num_domains : int;
  hosts_per_domain : int;
  num_apps : int;
  num_reps : int;
  policy : exclusion_policy;
  attack_rate_system : float;
  attack_share_host : float;
  attack_share_replica : float;
  attack_share_manager : float;
  frac_script : float;
  frac_exploratory : float;
  frac_innovative : float;
  corruption_multiplier : float;
  spread_rate_domain : float;
  spread_effect_domain : float;
  spread_rate_system : float;
  spread_effect_system : float;
  spread_slope : float;
  false_alarm_rate_system : float;
  false_alarm_share_host : float;
  p_detect_script : float;
  p_detect_exploratory : float;
  p_detect_innovative : float;
  p_detect_replica : float;
  p_detect_manager : float;
  ids_decision_rate : float;
  ids_latency_stages : int;
  ids_misses_sticky : bool;
  misbehave_rate : float;
  recovery_rate : float;
  quorum_gates_recovery : bool;
  spread_outlives_host : bool;
  rate_scale : float;
  host_rate_multipliers : float array;
}

let default =
  {
    num_domains = 10;
    hosts_per_domain = 3;
    num_apps = 4;
    num_reps = 7;
    policy = Domain_exclusion;
    attack_rate_system = 3.0;
    attack_share_host = 0.70;
    attack_share_replica = 0.15;
    attack_share_manager = 0.15;
    frac_script = 0.80;
    frac_exploratory = 0.15;
    frac_innovative = 0.05;
    corruption_multiplier = 2.0;
    spread_rate_domain = 1.0;
    spread_effect_domain = 1.0;
    spread_rate_system = 0.1;
    spread_effect_system = 0.1;
    spread_slope = 1.0;
    false_alarm_rate_system = 2.0;
    false_alarm_share_host = 0.5;
    p_detect_script = 0.90;
    p_detect_exploratory = 0.75;
    p_detect_innovative = 0.40;
    p_detect_replica = 0.80;
    p_detect_manager = 0.80;
    ids_decision_rate = 4.0;
    ids_latency_stages = 1;
    ids_misses_sticky = true;
    misbehave_rate = 2.0;
    recovery_rate = 100.0;
    quorum_gates_recovery = true;
    spread_outlives_host = true;
    rate_scale = 0.4;
    host_rate_multipliers = [||];
  }

let is_prob x = 0.0 <= x && x <= 1.0

let validate p =
  let err msg = Error msg in
  if p.num_domains < 1 then err "num_domains must be >= 1"
  else if p.hosts_per_domain < 1 then err "hosts_per_domain must be >= 1"
  else if p.num_apps < 1 then err "num_apps must be >= 1"
  else if p.num_reps < 1 then err "num_reps must be >= 1"
  else if not (p.attack_rate_system > 0.0) then
    err "attack_rate_system must be > 0"
  else if
    not
      (is_prob p.attack_share_host && is_prob p.attack_share_replica
     && is_prob p.attack_share_manager)
  then err "attack shares must be probabilities"
  else if
    Float.abs
      (p.attack_share_host +. p.attack_share_replica
      +. p.attack_share_manager -. 1.0)
    > 1e-9
  then err "attack shares must sum to 1"
  else if p.false_alarm_rate_system < 0.0 then
    err "false_alarm_rate_system must be >= 0"
  else if not (is_prob p.false_alarm_share_host) then
    err "false_alarm_share_host must be in [0, 1]"
  else if
    not
      (is_prob p.frac_script && is_prob p.frac_exploratory
     && is_prob p.frac_innovative)
  then err "attack class fractions must be probabilities"
  else if
    Float.abs (p.frac_script +. p.frac_exploratory +. p.frac_innovative -. 1.0)
    > 1e-9
  then err "attack class fractions must sum to 1"
  else if p.corruption_multiplier < 1.0 then
    err "corruption_multiplier must be >= 1"
  else if p.spread_rate_domain < 0.0 || p.spread_rate_system < 0.0 then
    err "spread rates must be >= 0"
  else if p.spread_effect_domain < 0.0 || p.spread_effect_system < 0.0 then
    err "spread effects must be >= 0"
  else if p.spread_slope < 0.0 then err "spread_slope must be >= 0"
  else if
    not
      (is_prob p.p_detect_script && is_prob p.p_detect_exploratory
     && is_prob p.p_detect_innovative && is_prob p.p_detect_replica
     && is_prob p.p_detect_manager)
  then err "detection probabilities must be in [0, 1]"
  else if not (p.ids_decision_rate > 0.0) then
    err "ids_decision_rate must be > 0"
  else if p.ids_latency_stages < 1 then
    err "ids_latency_stages must be >= 1"
  else if p.misbehave_rate < 0.0 then err "misbehave_rate must be >= 0"
  else if not (p.recovery_rate > 0.0) then err "recovery_rate must be > 0"
  else if not (p.rate_scale > 0.0) then err "rate_scale must be > 0"
  else if
    Array.length p.host_rate_multipliers <> 0
    && Array.length p.host_rate_multipliers
       <> p.num_domains * p.hosts_per_domain
  then err "host_rate_multipliers must be empty or have one entry per host"
  else if
    not
      (Array.for_all
         (fun x -> x > 0.0 && Float.is_finite x)
         p.host_rate_multipliers)
  then err "host_rate_multipliers must be positive and finite"
  else Ok ()

let check p =
  match validate p with
  | Ok () -> p
  | Error msg -> invalid_arg ("Itua.Params: " ^ msg)

let num_hosts p = p.num_domains * p.hosts_per_domain
let placed_replicas_per_app p = Int.min p.num_domains p.num_reps
let total_placed_replicas p = p.num_apps * placed_replicas_per_app p

(* Per-entity rates are constant across configurations ("the probability
   of a successful intrusion into a host is assumed to be the same in all
   experiments", Section 4.2): the cumulative rates describe the paper's
   baseline system of Sections 4.2/4.3 — 10 domains x 3 hosts and
   4 applications x 7 replicas — and are split across target classes by
   the share parameters, then evenly over that reference population. *)
let reference_hosts = 30.0
let reference_replicas = 28.0

let host_attack_rate p =
  p.rate_scale *. p.attack_rate_system *. p.attack_share_host
  /. reference_hosts

let host_rate_multiplier p g =
  if Array.length p.host_rate_multipliers = 0 then 1.0
  else p.host_rate_multipliers.(g)

let host_attack_rate_of p g = host_attack_rate p *. host_rate_multiplier p g

let host_spread_slope p =
  p.spread_slope *. p.attack_rate_system /. reference_hosts

let replica_attack_rate p =
  p.rate_scale *. p.attack_rate_system *. p.attack_share_replica
  /. reference_replicas

let manager_attack_rate p =
  p.rate_scale *. p.attack_rate_system *. p.attack_share_manager
  /. reference_hosts

(* False alarms concern host OS/manager infiltration and replica
   corruption; the cumulative rate is split by class, then evenly over the
   same reference population as the attacks. *)
let host_false_alarm_rate p =
  p.rate_scale *. p.false_alarm_rate_system *. p.false_alarm_share_host
  /. reference_hosts

let replica_false_alarm_rate p =
  p.rate_scale *. p.false_alarm_rate_system
  *. (1.0 -. p.false_alarm_share_host)
  /. reference_replicas

(* JSON round trip, used by [itua_sim save]/[--model] to carry the
   parameter block inside a serialized model's annotations.  Field order
   follows the record so equal parameter sets emit equal bytes. *)

let to_json p =
  let module J = Report.Json in
  J.Obj
    [
      ("num_domains", J.int p.num_domains);
      ("hosts_per_domain", J.int p.hosts_per_domain);
      ("num_apps", J.int p.num_apps);
      ("num_reps", J.int p.num_reps);
      ( "policy",
        J.Str
          (match p.policy with
          | Domain_exclusion -> "domain"
          | Host_exclusion -> "host") );
      ("attack_rate_system", J.Num p.attack_rate_system);
      ("attack_share_host", J.Num p.attack_share_host);
      ("attack_share_replica", J.Num p.attack_share_replica);
      ("attack_share_manager", J.Num p.attack_share_manager);
      ("frac_script", J.Num p.frac_script);
      ("frac_exploratory", J.Num p.frac_exploratory);
      ("frac_innovative", J.Num p.frac_innovative);
      ("corruption_multiplier", J.Num p.corruption_multiplier);
      ("spread_rate_domain", J.Num p.spread_rate_domain);
      ("spread_effect_domain", J.Num p.spread_effect_domain);
      ("spread_rate_system", J.Num p.spread_rate_system);
      ("spread_effect_system", J.Num p.spread_effect_system);
      ("spread_slope", J.Num p.spread_slope);
      ("false_alarm_rate_system", J.Num p.false_alarm_rate_system);
      ("false_alarm_share_host", J.Num p.false_alarm_share_host);
      ("p_detect_script", J.Num p.p_detect_script);
      ("p_detect_exploratory", J.Num p.p_detect_exploratory);
      ("p_detect_innovative", J.Num p.p_detect_innovative);
      ("p_detect_replica", J.Num p.p_detect_replica);
      ("p_detect_manager", J.Num p.p_detect_manager);
      ("ids_decision_rate", J.Num p.ids_decision_rate);
      ("ids_latency_stages", J.int p.ids_latency_stages);
      ("ids_misses_sticky", J.Bool p.ids_misses_sticky);
      ("misbehave_rate", J.Num p.misbehave_rate);
      ("recovery_rate", J.Num p.recovery_rate);
      ("quorum_gates_recovery", J.Bool p.quorum_gates_recovery);
      ("spread_outlives_host", J.Bool p.spread_outlives_host);
      ("rate_scale", J.Num p.rate_scale);
      ( "host_rate_multipliers",
        J.Arr
          (Array.to_list (Array.map (fun x -> J.Num x) p.host_rate_multipliers))
      );
    ]

let of_json ?(at = "$") j =
  let module J = Report.Json in
  J.decode
    (fun j ->
      let kvs = J.get_obj at j in
      let num = J.field J.get_num at kvs and int = J.field J.get_int at kvs in
      let bool = J.field J.get_bool at kvs in
      let policy =
        match J.field J.get_str at kvs "policy" with
        | "domain" -> Domain_exclusion
        | "host" -> Host_exclusion
        | s ->
            J.fail (J.key at "policy")
              "expected \"domain\" or \"host\", got %S" s
      in
      (* Optional with default: absent in itua-model/1 files written before
         heterogeneous fleets existed; emitting it unconditionally keeps
         to_json deterministic going forward. *)
      let host_rate_multipliers =
        J.opt_field (J.get_list J.get_num) at kvs "host_rate_multipliers"
        |> Option.fold ~none:[||] ~some:Array.of_list
      in
      let p =
        {
          num_domains = int "num_domains";
          hosts_per_domain = int "hosts_per_domain";
          num_apps = int "num_apps";
          num_reps = int "num_reps";
          policy;
          attack_rate_system = num "attack_rate_system";
          attack_share_host = num "attack_share_host";
          attack_share_replica = num "attack_share_replica";
          attack_share_manager = num "attack_share_manager";
          frac_script = num "frac_script";
          frac_exploratory = num "frac_exploratory";
          frac_innovative = num "frac_innovative";
          corruption_multiplier = num "corruption_multiplier";
          spread_rate_domain = num "spread_rate_domain";
          spread_effect_domain = num "spread_effect_domain";
          spread_rate_system = num "spread_rate_system";
          spread_effect_system = num "spread_effect_system";
          spread_slope = num "spread_slope";
          false_alarm_rate_system = num "false_alarm_rate_system";
          false_alarm_share_host = num "false_alarm_share_host";
          p_detect_script = num "p_detect_script";
          p_detect_exploratory = num "p_detect_exploratory";
          p_detect_innovative = num "p_detect_innovative";
          p_detect_replica = num "p_detect_replica";
          p_detect_manager = num "p_detect_manager";
          ids_decision_rate = num "ids_decision_rate";
          ids_latency_stages = int "ids_latency_stages";
          ids_misses_sticky = bool "ids_misses_sticky";
          misbehave_rate = num "misbehave_rate";
          recovery_rate = num "recovery_rate";
          quorum_gates_recovery = bool "quorum_gates_recovery";
          spread_outlives_host = bool "spread_outlives_host";
          rate_scale = num "rate_scale";
          host_rate_multipliers;
        }
      in
      match validate p with Ok () -> p | Error msg -> J.fail at "%s" msg)
    j

let pp ppf p =
  Format.fprintf ppf
    "@[<v>ITUA parameters:@,\
     topology: %d domains x %d hosts, %d apps x %d replicas, %s@,\
     attack: %.3g/h cumulative (%.4g/%.4g/%.4g per host/replica/manager), \
     classes %g/%g/%g, multiplier x%g@,\
     spread: domain %g/h (effect %g), system %g/h (effect %g)@,\
     detection: probs %g/%g/%g hosts, %g replicas, %g managers; decision \
     %g/h; false alarms %g/h@,\
     misbehavior %g/h; recovery %g/h@]"
    p.num_domains p.hosts_per_domain p.num_apps p.num_reps
    (match p.policy with
    | Domain_exclusion -> "domain-exclusion"
    | Host_exclusion -> "host-exclusion")
    p.attack_rate_system (host_attack_rate p) (replica_attack_rate p)
    (manager_attack_rate p) p.frac_script
    p.frac_exploratory p.frac_innovative p.corruption_multiplier
    p.spread_rate_domain p.spread_effect_domain p.spread_rate_system
    p.spread_effect_system p.p_detect_script p.p_detect_exploratory
    p.p_detect_innovative p.p_detect_replica p.p_detect_manager
    p.ids_decision_rate p.false_alarm_rate_system p.misbehave_rate
    p.recovery_rate
