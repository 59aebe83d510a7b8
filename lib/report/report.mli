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

  (** {2 Located decoding}

      The one decoder behind every reader of saved artifacts (model
      files, their parameter block, trajectory files). Each accessor
      takes [at], the JSON-pointer-style path of the value it inspects
      (rooted at [$], e.g. [$.activities[3].cases[0]]), and raises
      {!Decode_error} with a message of the form
      [$.path: expected …, got …] on a mismatch. Wrap a decoder in
      {!decode} to get a [result]. *)

  exception Decode_error of string

  val decode : (t -> 'a) -> t -> ('a, string) result
  (** [decode f j] is [Ok (f j)], or [Error msg] if [f] raises
      {!Decode_error}. *)

  val fail : string -> ('a, unit, string, 'b) format4 -> 'a
  (** [fail at fmt ...] raises {!Decode_error} with ["at: message"]. *)

  val key : string -> string -> string
  (** [key at k] is the path of field [k] of the object at [at]. *)

  val idx : string -> int -> string
  (** [idx at i] is the path of element [i] of the array at [at]. *)

  val short : t -> string
  (** Compact rendering truncated to 60 characters, for messages. *)

  val get_obj : string -> t -> (string * t) list
  val get_arr : string -> t -> t list
  val get_str : string -> t -> string
  val get_bool : string -> t -> bool
  val get_num : string -> t -> float

  val get_float : string -> t -> float
  (** A number, or [null] — how {!to_string} writes a non-finite
      float — read back as [nan]. *)

  val get_int : string -> t -> int
  (** An integral number of magnitude at most 1e15 (so it is exact in
      both [float] and [int]). *)

  val get_list : (string -> t -> 'a) -> string -> t -> 'a list
  (** [get_list decode at j]: [j] must be an array; element [i] is
      decoded by [decode] at [idx at i]. *)

  val field :
    (string -> t -> 'a) -> string -> (string * t) list -> string -> 'a
  (** [field decode at kvs k] decodes the required field [k] of the
      object [kvs] found at [at], with [decode] at [key at k]; a missing
      field fails at that path ([$.a.k: missing field "k"]). *)

  val opt_field :
    (string -> t -> 'a) -> string -> (string * t) list -> string -> 'a option
  (** Like {!field}, for an optional field: [None] when absent. *)
end

val write_jsonl : string -> Json.t list -> unit
(** [write_jsonl path lines] writes one compact JSON value per line. *)

val read_jsonl : string -> (Json.t list, string) result
(** Reads a JSONL file back (blank lines are skipped). The error carries
    [file:line] of the first unparsable line, or the [Sys_error] text if
    the file cannot be opened. *)

val read_jsonl_numbered : string -> ((int * Json.t) list, string) result
(** {!read_jsonl} with each value's 1-based line number, so a reader
    can locate its own decoding errors as [file:line]. *)
