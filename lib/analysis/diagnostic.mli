(** Diagnostics emitted by the model checker.

    Every finding carries a stable code (["A003-negative-write"], ...),
    a severity, a source (the model element it is about), and a
    human-readable message. Codes are stable across releases so CI
    configurations and suppression lists can match on them; message
    wording is not. [doc/ANALYSIS.md] catalogues every code with a
    minimal trigger and the usual fix. *)

type severity = Error | Warning | Info
(** [Error]: the model's observable behavior is wrong (crashes,
    diverging stabilization). [Warning]: almost certainly a modeling
    mistake, but behavior is well defined. [Info]: worth a look;
    routinely legitimate (e.g. accumulator places that only measures
    read). *)

(** The model element a diagnostic is about. *)
type source =
  | Model  (** the model as a whole (e.g. an instantaneous tie) *)
  | Activity of string
  | Place of string
  | Composition of string  (** a composition-tree node, by dotted path *)

type t = {
  code : string;
  severity : severity;
  source : source;
  message : string;
}

val v : code:string -> severity:severity -> source:source -> string -> t
(** [v ~code ~severity ~source message] builds a diagnostic. *)

val severity_to_string : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val source_to_string : source -> string
(** E.g. [{|activity "server.arrive"|}]. *)

val compare : t -> t -> int
(** Total order: code, then source, then message — the deterministic
    report order. *)

val pp : Format.formatter -> t -> unit
(** One line: [[error] A003-negative-write activity "x": ...]. *)

val to_json : t -> Report.Json.t
(** Object with [code], [severity], [source_kind], [source], [message]. *)

(** {2 Codes}

    One constant per diagnostic code, so passes and tests never spell
    the strings twice. A001, A002, A013 and A016 are retired, and the
    codes are never reused: A002 was subsumed by A013, A016 went with
    the closure effects, A013 (declared reads against the IR) with the
    builder completing every activity's reads from its IR, and A001
    (a closure rate's traced reads against its declared list) with the
    builder making a closure timing read every place. *)

val negative_write : string
val dead_activity : string
val never_written_place : string
val never_read_place : string
val instantaneous_loop : string
val instantaneous_tie : string
val unused_shared_place : string
val unbounded_place : string
val dead_effect : string
val invariant_violated : string
val dead_branch : string
val negative_capable : string
val orbit_report : string
val broken_symmetry : string
val unsound_canon : string

val catalogue : (string * string) list
(** Every code with a one-line description, in code order. *)
