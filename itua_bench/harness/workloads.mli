(** The benchmark's five workloads.

    A workload is a {e pass}: a fixed unit of work that ends in results a
    user of the toolkit would read (panel tables, a certificate, exact
    measures). A run repeats the pass for the time it is given and reports
    medians ({!Run}). Each pass makes its calls into the toolkit through a
    {!ctx}, which times model construction as set-up and, in a traced
    run, wraps every call in a span tagged with the layer it enters. *)

type ctx = { spans : Spans.t; mutable setup_s : float }

val ctx : Spans.t -> ctx
(** A fresh context: no set-up time yet. *)

type pass = {
  rendered : string;
      (** the pass's results as text; its MD5 is the run's digest, and
          passes on one seed must render identically *)
  checks : (string * bool) list;  (** must hold in every pass *)
  notes : (string * bool) list;  (** printed, not checked *)
  stats : (string * float) list;  (** printed as their median over passes *)
}

(** The ITUA configuration a traced run's executor and runner probes
    use: the one that stands for the workload. *)
type probe_config = {
  params : Itua.Params.t;
  horizon : float;
  rewards : Itua.Model.handles -> Sim.Reward.spec list;
}

type t = {
  name : string;
  why : string;  (** one line: what the workload stresses *)
  vary_seed : bool;
      (** each pass runs on its own sub-seed instead of the run's seed *)
  run_pass : ctx -> seed:int64 -> pass;
  run_checks : pass list -> (string * bool) list;
      (** checks over all of a run's passes *)
  probe : probe_config;
}

val fig3_sweep : t
(** Study 4.1: 6 host distributions x {2,4,6,8} apps, 200 reps each,
    5 h, the four Fig. 3 rewards, one domain. *)

val fig5_sweep : t
(** Study 4.3: spread {0,2,..,10} x {host, domain} exclusion on 10x3
    hosts, rate scale 1, 150 reps each, 10 h, one domain. *)

val rare_tail : t
(** RESTART splitting of the 10x1x4 unreliability over [0,5] (500
    initial trials, default levels, 4 clones) next to a 500-rep crude
    baseline, one domain. *)

val certificate : t
(** The staged [check --strict --invariants --symmetry] pipeline on
    {!certificate_configs}. *)

val ctmc_exact : t
(** Unlumped and orbit-lumped chains of the homogeneous and the 5 + 5
    heterogeneous 10-host fleet, E[excluded at t=5] compared between
    them, and the exact MTTA of [itua_sim mtta]'s minimal configuration
    (457 states), flat and lumped. *)

val all : t list
val find : string -> t option

(** {1 Pieces shared with the probes and tests} *)

val fig3_panels :
  ctx -> seed:int64 -> reps:int -> (string * Report.table) list * string list
(** The [Itua.Study.fig3] loop on one domain, one [Itua.Model.build]
    and one [Sim.Runner.run] per point: its panels and their series. *)

val fig5_panels :
  ctx -> seed:int64 -> reps:int -> (string * Report.table) list * string list
(** The same for [Itua.Study.fig5]. *)

val rare_params : Itua.Params.t
val rare_initial : int

type rare = {
  crude : Sim.Runner.result;
  crude_events : int;
  crude_s : float;
  split : Sim.Splitting.result;
  split_s : float;
  wnv_reduction : float;
      (** crude over splitting work-normalised variance *)
}

val rare_point :
  ctx -> domains:int -> seed:int64 -> initial:int -> Itua.Model.handles -> rare
(** Crude Monte Carlo with [initial] reps, then [Itua.Study.rare_point]
    with [initial] initial trials, both on [domains] domains. *)

val certificate_configs : (string * Itua.Params.t) list
(** [2x2x2x2] (the CI golden) and [3x1x4x7]. *)

val staged_check :
  ctx -> Itua.Model.handles -> Analysis.Check.t * Analysis.Orbit.report
(** [Analysis.Check.run ~composition ~laws] one stage at a time
    ([Space.build], [Passes.gather], [Structure.analyse], [Passes.all])
    with the model's conservation laws, then [Analysis.Orbit.analyse]. *)
