(** Structural (incidence-based) analysis: P-semiflows, conservation
    certificates, boundedness.

    Classic Petri-net structure theory applied to SAN models. The
    incidence matrix is read off the effect IR syntax trees by
    {!Symbolic.read_case}: one delta row — a {e mode} of the high-level
    net — per guard-specialized [Ops] block, covering {e every} marking
    change any firing can produce, with no marking enumeration and no
    sampling. Places whose delta cannot be resolved statically are
    listed in [unresolved] and receive a synthetic unit row, which
    soundly forces their coefficient to zero in every semiflow.
    Declared laws are proven symbolically ({!Symbolic.case_drifts}),
    and validated on the collected markings only when that proof is
    incomplete.

    From the mode matrix [C] (places x modes) the analysis computes:

    {ul
    {- {b P-semiflows}: minimal non-negative integer vectors [y] with
       [y . C = 0] (Farkas' algorithm) — weighted token conservation
       laws, each with its conserved value [y . M0];}
    {- the {b rank} of [C] over the rationals by exact fraction-free
       integer elimination ({!rank}), and with it the dimension of the
       space of P-invariants (mixed-sign ones included);}
    {- {b boundedness certificates}: a structural bound
       [y . M0 / y_p] for every place covered by a semiflow, plus the
       maximum over the space's markings (an exhaustion proof in
       exhaustive mode);}
    {- verification of caller-{b declared} conservation laws (e.g.
       {!Itua.Invariant.conservation_laws}) against every mode, the
       basis of the A012 diagnostic and of the [itua_sim check
       --invariants] certificate.}}

    Farkas' algorithm is worst-case exponential, so semiflow
    enumeration is skipped (with the reason recorded in
    [flows_skipped]) above 512 modes, and aborted when its elimination
    grows past 4096 rows; declared-law verification and rank are cheap
    and always run. *)

type incidence =
  | Exact  (** delta rows read symbolically off the effect IR *)
  | Observed
      (** delta rows observed by firing closure effects on markings; no
          longer produced — {!analyse} always yields [Exact] *)

type law = {
  law_name : string;
  law_terms : (San.Place.t * int) list;
      (** weighted int places; the conserved value is the weighted sum
          at the initial marking *)
}
(** A caller-declared conservation law. *)

type mode = {
  act_id : int;
  activity : string;
  case : int;
  delta : (int * int) list;
      (** net int-place change [(index, change)], ascending index,
          unchanged places omitted *)
  float_delta : bool;  (** the firing changed some float place *)
}
(** One net effect of an (activity, case) pair. A branching effect
    contributes one mode per [Ops] block. *)

type flow = {
  flow_terms : (int * int) list;
      (** [(int place index, coefficient)], coefficients > 0,
          ascending index *)
  flow_value : int;  (** conserved value: terms weighted at [M0] *)
}
(** A P-semiflow. *)

type law_report = {
  lr_name : string;
  lr_terms : (int * int) list;  (** [(int place index, coefficient)] *)
  lr_value : int;  (** weighted sum at the initial marking *)
  lr_violations : (string * int * int) list;
      (** [(activity, case, drift)] for every symbolically derived
          constant drift that changes the weighted sum; empty means the
          law holds *)
  lr_how : string;
      (** how the verdict was reached: symbolic proof, or validation
          on the space's markings when the proof is incomplete *)
  lr_unproven : (string * int * string) list;
      (** [(activity, case, reason)] for cases the symbolic engine
          could not decide; such laws fall back to marking validation
          and are excluded from structural bounds *)
}

type t = {
  incidence : incidence;  (** always [Exact] *)
  space_mode : Space.mode;
  n_markings : int;  (** markings sampled for validation *)
  n_int : int;  (** int places (marking-array slots) *)
  place_names : string array;  (** by int place index *)
  initial : int array;  (** [M0], by int place index *)
  modes : mode array;  (** in activity, case and [Ops]-block order *)
  active : int list;  (** int places some mode changes, ascending *)
  constant : int list;
      (** int places no mode changes — trivially conserved *)
  rank : int;  (** rank of the mode matrix over the rationals *)
  invariant_dim : int;
      (** dimension of the left nullspace over the {e active} places:
          [|active| - rank] independent P-invariants *)
  p_semiflows : flow list;
  flows_skipped : string option;
      (** semiflow enumeration was skipped or aborted: why *)
  laws : law_report list;
  observed_max : int array;
      (** by int place index: max value over the space's markings *)
  structural_bound : int option array;
      (** by int place index: best bound [flow_value / coeff] over
          covering semiflows, verified non-negative declared laws and
          {!Symbolic.set_only_bounds} *)
  unresolved : int list;
      (** ascending int place indexes written with a statically
          unresolvable delta *)
  ir_diags : Diagnostic.t list;
      (** A014 (statically dead branch) and A015 (negative-capable
          delta) findings, returned by {!diagnostics} *)
}

val incidence_name : incidence -> string
(** ["exact"] or ["observed"], as the reports spell it. *)

val analyse : ?laws:law list -> Space.t -> t
(** [analyse space] reads the delta rows off the effect IR
    ({!Symbolic.read_case}) and computes every certificate; the space's
    markings serve only for [observed_max] and as a backstop when a
    law's symbolic proof is incomplete. Deterministic for a fixed
    space. *)

val rank : (int * int) list list -> int
(** The rank over the rationals of sparse integer rows, each a list of
    [(column, coefficient)] with ascending columns and no zero
    coefficient. Exact: rows are reduced by integer combinations and
    divided by the gcd of their entries, never rounded. *)

val covered : t -> int -> bool
(** [covered t i]: int place [i] is conserved or bounded by the
    computed structure — it is constant, in the support of a
    P-semiflow, in a verified declared law with non-negative
    coefficients, or carries a structural bound. Meaningful only when
    [flows_skipped = None]. *)

val sampled_fallbacks : t -> string list
(** The exactness gate: every way this certificate falls short of a
    symbolic proof — declared laws whose symbolic proof was
    incomplete. Cap aborts
    ([flows_skipped]) and a sampled marking space do {e not} count:
    they limit optional enumeration and liveness coverage, not the
    exactness of the law verdicts. Empty for a fully exact
    certificate. *)

val diagnostics : t -> Diagnostic.t list
(** The structural diagnostics: A010 (potentially unbounded place —
    never in exhaustive space mode, where the walk itself is a
    boundedness proof; an uncovered place with a proven increasing
    delta warns while an unresolved-delta-only place is
    informational), A011 (dead effect: an activity whose every delta
    row changes nothing), A012 (an effect violates a declared
    conservation law), plus the stashed A014/A015 findings.
    Unsorted; {!Check.run} merges and sorts. *)

val pp : Format.formatter -> t -> unit
(** The human-readable certificate: coverage, rank, semiflows with
    conserved values, declared-law verdicts, place bounds. *)

val to_json : t -> Report.Json.t
(** Deterministic JSON rendering, embedded by {!Check.to_json} under
    the ["structure"] key (the [itua-analysis/1] extension). *)

exception Invariant_violation of string
(** Raised by a {!guard} when a declared law does not hold. *)

val guard : laws:law list -> San.Model.t -> San.Marking.t -> unit
(** [guard ~laws model] precomputes each law's expected value from the
    model's initial marking and returns a checker suitable for
    {!Sim.Executor}'s [?check_invariants]: it raises
    {!Invariant_violation} naming the law, the expected and the actual
    value when a marking breaks a law. O(total law terms) per call. *)
