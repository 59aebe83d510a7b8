(** The set of markings a checking pass evaluates over.

    The checker wants to see every marking the model can visit. Two ways
    to get them:

    {ul
    {- {b Exhaustive}: {!Ctmc.Walker.reachable} enumerates every stable
       marking reachable from the initial marking, and the walk's
       [on_vanishing] hook additionally collects every {e vanishing}
       marking (instantaneous activity enabled) crossed on the way.
       Works for any timing distributions — reachability never looks at
       rates — but requires a state space below [max_states].}
    {- {b Sampled}: when the exhaustive walk fails (an effect fails,
       the space is too large, or instantaneous firings loop), fall
       back to collecting the distinct markings visited by a
       few short simulation runs. Coverage is then partial, which is why
       liveness-style passes downgrade their findings to [Info] in this
       mode.}}

    The fallback is automatic; {!t} records which mode was used and why,
    so reports can say how much trust to put in "never happened"
    findings. *)

type mode = Exhaustive | Sampled

type t = {
  model : San.Model.t;
  mode : mode;
  markings : San.Marking.t list;
      (** Exhaustive: all stable markings (walk order), then all
          vanishing markings. Sampled: distinct visited markings, visit
          order, starting with the raw initial marking. *)
  n_stable : int;
      (** Exhaustive: stable-marking (CTMC state) count. Sampled: total
          distinct markings collected. *)
  n_vanishing : int;  (** Exhaustive only; [0] in sampled mode. *)
  loop : string option;
      (** Evidence that instantaneous firings failed to stabilize,
          from either the exhaustive walk or a diverged sample run. *)
  truncated : bool;  (** Sampled mode hit its 500-marking cap. *)
  fallback : string option;
      (** Why the exhaustive walk was abandoned: an effect failure, an
          instantaneous loop, or the bound that tripped — [max_states],
          [max_work], the 4096 outcomes of one firing or the 50,000
          markings of one vanishing resolution (the fixed caps of
          {!Ctmc.Walker}); [None] when [mode = Exhaustive]. *)
}

val build :
  ?max_states:int ->
  ?max_work:int ->
  ?runs:int ->
  ?horizon:float ->
  San.Model.t ->
  t
(** [build model] tries the exhaustive walk (bounded by [max_states],
    default 200_000, and by [max_work] vanishing-resolution visits,
    default 25_000 — a deliberately tight effort bound, because the
    checker would rather sample than spend minutes enumerating a model
    whose per-state resolution cost explodes; see
    {!Ctmc.Walker.Work_budget}) and falls back to sampling: [runs] (default 3)
    runs to [horizon] (default 10.0) from root seed 7, keeping at most
    500 distinct markings. Sampling tolerates per-run [Stabilization_diverged]
    (recorded in [loop]) and [Invalid_argument] (negative marking —
    the sweep re-detects and reports it); both end that run early but
    keep its markings. Deterministic for fixed arguments. *)

val n_markings : t -> int
(** [List.length markings]. *)

val describe : t -> string
(** One line for report headers, e.g.
    ["exhaustive: 9 stable markings (+ 3 vanishing)"]. *)
