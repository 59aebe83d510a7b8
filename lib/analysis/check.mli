(** The full model check: space + facts + every pass, as one report.

    This is the entry point the [itua_sim check] subcommand and the
    tests use:

    {[
      let report = Analysis.Check.run ~composition model in
      Format.printf "%a" Analysis.Check.pp report;
      exit (if Analysis.Check.has_errors report then 1 else 0)
    ]} *)

type t = {
  model_name : string;
  mode : Space.mode;
  n_stable : int;
  n_vanishing : int;
  truncated : bool;
  fallback : string option;  (** why exhaustive walking was abandoned *)
  diagnostics : Diagnostic.t list;  (** sorted by {!Diagnostic.compare} *)
  structure : Structure.t;
      (** the structural certificate (incidence modes, rank,
          P-semiflows, declared-law verdicts, bounds) — always computed;
          the CLI prints it only under [--invariants] *)
  incidence : string;
      (** always ["exact"]: delta rows read symbolically off the effect
          IR ({!Structure.incidence}; ["observed"] is no longer
          produced) *)
  sampled_fallbacks : string list;
      (** {!Structure.sampled_fallbacks} — the exactness gate: empty
          iff every declared-law verdict is exact *)
}

val run :
  ?composition:Compose.info ->
  ?laws:Structure.law list ->
  ?max_states:int ->
  ?runs:int ->
  ?horizon:float ->
  San.Model.t ->
  t
(** Builds the marking space (see {!Space.build} for the defaults and
    the exhaustive/sampled fallback), gathers facts, runs every pass —
    the shared-place audit only when [composition] is supplied, the
    A012 declared-invariant pass only when [laws] is. Deterministic
    for fixed arguments. *)

val has_errors : t -> bool

val errors : t -> Diagnostic.t list

val count : Diagnostic.severity -> t -> int

val exit_code : ?strict:bool -> t -> int
(** The process exit status the CLI uses: [1] on any error-severity
    diagnostic, else [1] when [strict] and the report holds at least
    one warning, else [0]. *)

val pp : Format.formatter -> t -> unit
(** Header line (model, mode, coverage), one line per diagnostic, and a
    severity tally. *)

val to_json : t -> Report.Json.t
(** Deterministic object: model, mode, coverage counts, severity
    tallies, and the diagnostics array. *)

val certificate :
  ?orbits:Orbit.report -> ?ir_dump:Ir_dump.t -> t -> t * Report.Json.t
(** The document [itua_sim check --json] writes, and the report it
    describes. With [orbits] (the [--symmetry] pass), the orbit
    diagnostics (A017/A018) are merged into the report's sorted
    diagnostics — so they count in {!pp}'s tally and {!exit_code} —
    and the orbit report is appended under the [symmetry] key; with
    [ir_dump] ([--ir-dump]), the dump is appended under [ir_dump]. *)
