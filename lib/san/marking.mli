(** Markings: the mutable state of a SAN.

    A marking assigns a non-negative integer to every int place and a float
    to every extended place. The simulator needs to know which places an
    activity's firing changed, so writes are journalled: between
    {!clear_journal} and {!journal}, every place whose value actually
    changed is recorded (once) by uid.

    Int markings are checked to stay non-negative, which catches effect
    bugs (e.g. killing a replica twice) early. *)

type t

val create : ints:int -> floats:int -> t
(** Fresh marking with the given numbers of slots, all zero. *)

val copy : t -> t
(** Deep copy (journal not copied). Used for state-space exploration. *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] overwrites every place of [dst] with its value in
    [src] and clears [dst]'s journal, without allocating. The markings
    must have the same numbers of int and float places
    ([Invalid_argument] otherwise). *)

val get : t -> Place.t -> int
val set : t -> Place.t -> int -> unit
(** [set m p v] writes [v]; raises [Invalid_argument] if [v < 0]. *)

val add : t -> Place.t -> int -> unit
(** [add m p d] is [set m p (get m p + d)]. *)

val fget : t -> Place.fl -> float
val fset : t -> Place.fl -> float -> unit
val fadd : t -> Place.fl -> float -> unit

val clear_journal : t -> unit
val journal : t -> int list
(** Uids of places changed since the last {!clear_journal}, most recent
    first, each at most once. *)

val trace_reads : t -> (unit -> 'a) -> 'a * int list
(** [trace_reads m f] runs [f] while recording which places [f] reads
    through this marking (each uid once), and returns [f]'s result with
    the read set. Used by the [analysis] library to detect activities
    whose rate or case-weight closures read places missing from their
    declared [reads] list. Not reentrant. *)

val int_snapshot : t -> int array
val float_snapshot : t -> float array
(** Copies of the raw state, used for hashing markings during state-space
    exploration and for invariant checks. *)

val equal : t -> t -> bool
val hash : t -> int
