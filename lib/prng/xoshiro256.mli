(** xoshiro256++ pseudo-random number generator (Blackman & Vigna 2019).

    256-bit state, period 2^256 - 1, excellent statistical quality, and a
    jump function that advances the state by 2^128 steps, giving up to 2^128
    provably non-overlapping subsequences. This is the workhorse generator
    behind {!Stream}. *)

type t
(** Mutable generator state, held unboxed: advancing it allocates
    nothing. *)

val of_seed : int64 -> t
(** [of_seed seed] expands [seed] into a full 256-bit state using
    SplitMix64, as recommended by the xoshiro authors. The resulting state
    is never all-zero. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val next : t -> int64
(** [next g] returns the next 64-bit output and advances the state. *)

val next_top : t -> int -> int
(** [next_top g bits] is the top [bits] bits of [next g], as a
    non-negative [int]: [Int64.to_int (Int64.shift_right_logical (next g)
    (64 - bits))], for [1 <= bits <= 62]. Unlike [next] it allocates
    nothing. *)

val jump : t -> unit
(** [jump g] advances [g] by 2^128 steps of [next]. Calling [jump] [i]
    times from a common origin yields generator number [i] of a family of
    non-overlapping streams, each of length 2^128. *)
