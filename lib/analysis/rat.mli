(** Exact rational arithmetic on native integers.

    The structural passes ({!Structure}) do linear algebra over the
    rationals: the rank that counts P-invariants must be exact —
    floating point would turn "conserved" into "conserved up to
    epsilon". Incidence entries are small (a firing moves a handful of
    tokens), so native 63-bit integers with eager gcd normalization are
    plenty; no [Zarith] dependency. Overflow is the caller's
    responsibility and is unreachable for the coefficient magnitudes
    SAN incidence matrices produce. *)

type t = private { num : int; den : int }
(** Normalized: [den > 0] and [gcd (abs num) den = 1]. *)

val zero : t
val one : t

val of_int : int -> t

val make : int -> int -> t
(** [make num den] normalizes; raises [Division_by_zero] on [den = 0]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Raises [Division_by_zero] on a zero divisor. *)

val neg : t -> t
val inv : t -> t
val is_zero : t -> bool

val sign : t -> int
(** [-1], [0] or [1]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** ["3"], ["-2/5"]. *)

val pp : Format.formatter -> t -> unit
