(** Versioned on-disk model format ([itua-model/2]) and structural diff.

    The declarative effect IR ({!San.Effect}) made effects comparable
    data; this module completes the round trip: a {!San.Model.t} whose
    guards, timing distributions, case weights, and effects are all
    declarative serializes to a versioned, {e deterministic} JSON
    document over {!Report.Json} — equal models always produce equal
    bytes — and parses back to a model that simulates bit-identically
    (same trajectories under the same seeds) and analyses identically
    (same diagnostics and invariant certificates).

    The full specification of the format lives in [doc/FORMAT.md].
    Highlights the caller must know:

    {ul
    {- Places serialize in uid (creation) order, so the rebuilt model
       assigns identical uids and indices — journal order, dependents,
       and therefore trajectories are preserved exactly.}
    {- A closure timing ([San.Model.Builder.timed_exp_ir]) is {e not}
       portable: {!to_json} raises {!Unportable} naming the offending
       activity. Every other builder is portable.}
    {- Activities carry no read list: the builder that loads a
       document derives each activity's wake-ups from its guard,
       distribution and weights, as it does for an in-code model.}
    {- The format reserves an optional per-place ["bound"] (declared
       capacity, informational — e.g. from a structural certificate);
       it round-trips through {!loaded.bounds} without affecting the
       model.}} *)

val schema : string
(** ["itua-model/2"]. *)

exception Unportable of string
(** Raised by {!to_json}/{!emit} when the model contains a closure
    timing distribution, which cannot be represented in the format. The
    message names {e every} offending activity, so one round trip
    surfaces the full porting worklist rather than the first blocker. *)

val to_json :
  ?bounds:(string * int) list ->
  ?composition:Compose.info ->
  ?annotations:(string * Report.Json.t) list ->
  San.Model.t ->
  Report.Json.t
(** Serialize a model. [bounds] attaches declared capacities to int
    places by name; [composition] embeds the Replicate/Join tree;
    [annotations] is an opaque key/value envelope section (e.g. the
    ITUA parameter block) passed through verbatim.
    Raises {!Unportable}. *)

val emit :
  ?bounds:(string * int) list ->
  ?composition:Compose.info ->
  ?annotations:(string * Report.Json.t) list ->
  San.Model.t ->
  string
(** [Report.Json.to_string] of {!to_json}: compact, single-line,
    deterministic. Raises {!Unportable}. *)

type loaded = {
  model : San.Model.t;
  composition : Compose.info option;
  bounds : (string * int) list;  (** declared int-place bounds, file order *)
  annotations : (string * Report.Json.t) list;
}
(** A parsed document. [composition] is present when the file embedded
    the Replicate/Join tree (validated against the model's place and
    activity names). *)

val of_json : Report.Json.t -> (loaded, string) result
(** Validate and rebuild, through {!Report.Json}'s located decoder.
    Errors carry a JSON-pointer-style location, e.g.
    ["$.activities[12].cases[0].effect.ops[3]: unknown place \"foo\""]
    or ["$.places[4].init: expected an integer, got 1.5"]. *)

val parse : string -> (loaded, string) result
(** [of_json] after [Report.Json.of_string]; syntax errors carry the
    byte offset. *)

val load : string -> (loaded, string) result
(** [parse] on a file's contents. *)

val save : string -> Report.Json.t -> unit
(** Write a document ({!to_json} output) to a file, with a trailing
    newline. *)

(** Structural diff between two serialized models. The differ walks the
    canonical JSON trees; arrays whose elements are named objects
    (places, activities) match by ["name"], so an inserted place
    reports as one addition instead of shifting every later element.
    Paths use the same JSON-pointer style as parse errors,
    with named-array elements keyed by name:
    [places["app[0].corrupt"].init]. *)
module Diff : sig
  type entry = {
    at : string;  (** path into the document, e.g. [activities["x"].guard] *)
    change : string;  (** [changed: a -> b], [added: v], [removed (was v)], [order changed] *)
  }

  val diff : Report.Json.t -> Report.Json.t -> entry list
  (** Entries in document order; [[]] iff the documents are
      structurally identical. *)

  val pp : Format.formatter -> entry list -> unit
  (** One entry per line. *)

  val to_json : entry list -> Report.Json.t
  (** [[{"path":...,"change":...}, ...]] — deterministic. *)
end
