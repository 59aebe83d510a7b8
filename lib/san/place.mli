(** Places of a stochastic activity network.

    A place holds part of the model state (its {e marking}). Standard SAN
    places hold non-negative integers; following Möbius's {e extended
    places}, we also support float-valued places, which the ITUA model uses
    for the fractional attack-spread accumulators.

    Values of this module are descriptors (name + slot index); the actual
    state lives in {!Marking.t}. Places are created through
    {!Model.Builder} and are immutable. *)

type t
(** An int-valued place. *)

type fl
(** A float-valued (extended) place. *)

type any = P of t | F of fl
(** Either kind, used in activity dependency lists. *)

val name : t -> string
val fname : fl -> string

val index : t -> int
(** Slot in the marking's int array. *)

val findex : fl -> int
(** Slot in the marking's float array. *)

val uid : t -> int
val fuid : fl -> int
(** Unique id across both kinds, used for dependency indexing. *)

val any_uid : any -> int
val any_name : any -> string

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(**/**)

val make_int : name:string -> index:int -> uid:int -> t
val make_float : name:string -> index:int -> uid:int -> fl
(** Internal constructors used by {!Model.Builder}. *)
