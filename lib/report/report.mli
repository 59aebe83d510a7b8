(** Result tables for the experiment harness.

    A {!table} is a labelled grid: one row per x-value of a parameter
    sweep, one column per data series (e.g. one per application count in
    Figure 3, or one per exclusion policy in Figure 5). Cells hold
    confidence intervals. Tables render as aligned text (the form
    [itua_sim study] prints) or CSV (for external plotting). *)

type cell = Stats.Ci.t option
(** [None] when the measure was undefined in every replication. *)

type table

val create :
  title:string -> x_label:string -> series:string list -> table
(** Column layout; rows are appended with {!add_row}. *)

val add_row : table -> x:float -> cell list -> unit
(** Appends a row. The number of cells must match the series count. *)

val title : table -> string

val x_values : table -> float list

val value : table -> x:float -> series:string -> cell
(** Lookup a cell; raises [Not_found] for unknown coordinates. *)

val pp_text : Format.formatter -> table -> unit
(** Aligned, human-readable rendering with ± half-widths. *)

val pp_csv : Format.formatter -> table -> unit
(** CSV: header [x,<series>,<series>_hw,...], one row per x. *)

val write_csv : string -> table -> unit
(** [write_csv path t] saves {!pp_csv} output to [path]. *)

val pp_csv_rows :
  header:string list -> Format.formatter -> string list list -> unit
(** Generic CSV for tables that are not CI grids (engine telemetry,
    convergence trajectories): a header row followed by the given rows, each
    escaped. Every row must match the header's width
    ([Invalid_argument] otherwise). *)

val write_csv_rows : string -> header:string list -> string list list -> unit
(** [write_csv_rows path ~header rows] saves {!pp_csv_rows} to [path]. *)

(** Minimal JSON values, for the line-oriented records the harness writes
    (trajectory JSONL, metrics snapshots, benchmark results).

    The printer is compact (one line, no spaces) and {e deterministic}:
    floats render as the shortest [%.15g]/[%.17g] form that round-trips,
    so equal values always produce equal bytes — trajectory files are
    compared byte-for-byte across core counts. Non-finite numbers render
    as [null]. The parser accepts any standard JSON text ([\u] escapes
    are decoded to UTF-8; surrogate pairs are not recombined). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val int : int -> t
  (** [int n] is [Num (float_of_int n)]. *)

  val float_to_string : float -> string
  (** The deterministic float rendering used by {!to_string}: integral
      values without a fraction, otherwise the shortest of [%.15g]/[%.17g]
      that round-trips through [float_of_string]. *)

  val to_string : t -> string
  (** Compact, deterministic, single-line rendering. *)

  val of_string : string -> (t, string) result
  (** Parses a complete JSON text; the error carries a byte offset. *)

  val member : string -> t -> t option
  (** Object field lookup; [None] on missing field or non-object. *)

  val str : t -> string option
  val num : t -> float option
  val arr : t -> t list option
  val bool : t -> bool option
  (** Shape accessors; [None] on kind mismatch. *)
end

val write_jsonl : string -> Json.t list -> unit
(** [write_jsonl path lines] writes one compact JSON value per line. *)

val read_jsonl : string -> (Json.t list, string) result
(** Reads a JSONL file back (blank lines are skipped). The error carries
    [file:line] of the first unparsable line, or the [Sys_error] text if
    the file cannot be opened. *)
