(** The paper's design studies (Section 4): one function per figure,
    each returning one result table per panel.

    Runner defaults: 2000 replications, seed 20030622, one OCaml domain
    per available core (capped at 8). Every panel of a figure is computed
    from the same set of simulation runs (one run measures all its
    windows), like the paper's Möbius studies.

    Calibration: studies 1 and 2 (Figures 3 and 4) run at the default
    {!Params.t.rate_scale} of 0.4; study 3 (Figure 5) runs at the literal
    reading [rate_scale = 1.0] — the regime where the host-exclusion
    scheme's spread sensitivity and the long-run unreliability crossover
    match the paper. EXPERIMENTS.md discusses the sensitivity of each
    panel to this factor. *)

type config = {
  reps : int;
  seed : int64;
  domains : int;  (** OCaml domains for parallel replications *)
}

val default_config : config

val quick_config : config
(** 300 replications — for tests and smoke runs. *)

val fig3 : ?config:config -> unit -> (string * Report.table) list
(** Study 4.1: 12 hosts distributed into 1, 2, 3, 4, 6 or 12 domains;
    2/4/6/8 applications × 7 replicas; domain exclusion; first 5 hours.
    Panels [fig3a] unavailability, [fig3b] unreliability, [fig3c] fraction
    of corrupt hosts in an excluded domain, [fig3d] fraction of domains
    excluded at t = 5. X-axis: hosts per domain. *)

val fig4 : ?config:config -> unit -> (string * Report.table) list
(** Study 4.2: 10 domains × 1..4 hosts; 4 applications × 7 replicas.
    Panels [fig4a] unavailability and [fig4b] unreliability for [0,5] and
    [0,10], [fig4c] long-run fraction of corrupt hosts in excluded domains
    (measured at t = 10), [fig4d] fraction of domains excluded at t = 5
    and t = 10. *)

val fig5 : ?config:config -> unit -> (string * Report.table) list
(** Study 4.3: 10 domains × 3 hosts, 4 applications × 7 replicas, ×5
    corruption multiplier, within-domain spread rate swept over
    0..10, host- vs domain-exclusion. Panels [fig5a]/[fig5b]
    unavailability for [0,5]/[0,10], [fig5c]/[fig5d] unreliability for
    [0,5]/[0,10]. *)

val all : ?config:config -> unit -> (string * Report.table) list
(** Every panel of every figure, in paper order. *)

val hetero_fleet_params : unit -> Params.t
(** The heterogeneous validation configuration: 10 domains × 1 host,
    4 applications × 7 replicas, with five hosts at the baseline attack
    rate and five "soft" hosts at 2.5× ({!Params.t.host_rate_multipliers}
    [= [|1;1;1;1;1;2.5;2.5;2.5;2.5;2.5|]]). The benchmark harness's
    [fleet] fixture (the [ctmc_exact] workload) takes its per-host rates
    from these multipliers, and the orbit pass splits that fleet into
    two partial orbits of five hosts each. The ITUA model built from
    these parameters does not lump: the [on_host] host-id coupling
    leaves every Replicate family in singleton orbits, as it does on the
    homogeneous model. No [itua_sim] flag sets the multipliers. *)

val sensitivity : ?config:config -> unit -> (string * Report.table) list
(** Parameter-sensitivity sweeps on the Section 4.2 baseline, in the
    spirit of the paper's "we have also tried to explore the system's
    sensitivity to variations in these parameters": host detection
    probability (scaling the three class probabilities together),
    recovery rate, misbehaviour-detection rate, and the corruption
    multiplier — each against unavailability and unreliability over
    [0,10]. *)

val ablation : ?config:config -> unit -> (string * Report.table) list
(** Modeling-choice ablations on the study-4.3 high-spread host-exclusion
    configuration: sticky vs retrying IDS misses, persistent vs quenched
    attack spread, quorum-gated vs ungated recovery (rows in that order,
    after the baseline). *)

val trajectory : ?config:config -> unit -> (string * Report.table) list
(** Time evolution of the key measures on the Section 4.2 baseline over
    [0, 10] hours, one panel per exclusion policy ([traj_domain] /
    [traj_host]): fraction of domains excluded, replicas still running
    (per application), and cumulative unavailability [0,t] at each hour.
    The paper reports only end-of-interval values; these tables show the
    dynamics behind them. *)

(** {1 Rare-event estimation} *)

type rare_measure = Unreliability | Unavailability

val rare_point :
  ?config:config ->
  ?levels:int ->
  ?clones:int ->
  ?initial:int ->
  ?measure:rare_measure ->
  ?app:int ->
  ?handles:Model.handles ->
  params:Params.t ->
  until:float ->
  unit ->
  Sim.Splitting.result
(** One splitting run ({!Sim.Splitting}) of the tail probability that
    application [app] (default 0) ever fails within [\[0, until\]] —
    improper for [Unreliability], improper-or-starved for
    [Unavailability] — using the {!Rare} importance functions. By
    exchangeability over applications this equals the mean the crude-MC
    panels report (see {!Rare.unreliability}). Defaults: [levels] from
    {!Rare.default_levels}, [clones] 4, [initial] = [config.reps], seed
    and OCaml domains from [config]. [handles] simulates that prebuilt
    model — e.g. one reloaded from disk ([itua_sim rare --model]) —
    instead of building one from [params]; the two must describe the
    same configuration. *)

val fig4b_rare :
  ?config:config ->
  ?levels:int ->
  ?clones:int ->
  ?initial:int ->
  unit ->
  (string * Report.table) list
(** The EXPERIMENTS.md rare-event appendix panel: the Study 4.2
    unreliability [0,5] column re-estimated by splitting, side by side
    with the crude-MC estimate from the same number of initial
    replications. *)

val shape_checks : (string * Report.table) list -> (string * bool) list
(** Qualitative acceptance checks on computed panels (monotonicities, the
    Figure 3(b) peak at 4 hosts/domain, Figure 5's spread sensitivity and
    long-run crossover). Returns a labelled pass/fail list; panels absent
    from the input are skipped. *)
