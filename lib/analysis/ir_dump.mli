(** Human- and machine-readable dump of the compiled effect IR.

    The [itua_sim check --ir-dump] flag prints, per activity, the arc
    structure the exact analysis reads off the syntax tree: guard reads,
    static effect read/write sets, and — per case — the exact delta
    rows {!Symbolic.read_case} extracts (the same atoms the incidence
    matrix is built from), with unresolved places marked. The output is deterministic for a fixed model: activities
    in declaration order, places by name, rows in extraction order. *)

type case_dump = {
  cd_index : int;
  cd_rows : (string * int) list list;
      (** exact delta rows, places by name *)
  cd_unresolved : string list;
      (** places written with statically unresolvable deltas *)
  cd_float : bool;  (** the case writes float places *)
}

type activity_dump = {
  ad_name : string;
  ad_timing : string;  (** ["timed"] or ["instantaneous"] *)
  ad_guard_reads : string list;  (** places the IR guard reads *)
  ad_reads : string list;  (** static effect read set over all cases *)
  ad_writes : string list;  (** likewise for writes *)
  ad_cases : case_dump list;
}

type t = { model : string; activities : activity_dump list }

val dump : San.Model.t -> t

val pp : Format.formatter -> t -> unit

val to_json : t -> Report.Json.t
(** Deterministic object under the ["itua-analysis/1"] schema
    envelope. *)
