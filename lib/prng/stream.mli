(** Random-number streams for simulation.

    A {!t} wraps a xoshiro256++ generator and exposes the sampling
    primitives the simulator and the distribution library need. Streams are
    deterministic functions of their seed, so every simulation run is
    reproducible, and {!substream} derives provably non-overlapping streams
    for independent replications (one jump-indexed stream per replication). *)

type t
(** A mutable stream of pseudo-random numbers. *)

val create : seed:int64 -> t
(** [create ~seed] builds the root stream for [seed]. *)

val substream : t -> int -> t
(** [substream root i] is the [i]-th independent stream derived from
    [root]'s seed: the root generator state advanced by [i] jumps of 2^128
    steps. [substream] does not disturb [root]; [i] must be
    non-negative. Streams for distinct [i] never overlap (for fewer than
    2^128 draws each). For large [i] this costs [i] jump operations, so
    replication runners should derive substreams incrementally; see
    {!successor}. *)

val successor : t -> t
(** [successor s] is a fresh stream positioned one jump (2^128 draws) past
    [s]'s current state; [s] itself is not disturbed. Repeatedly applying
    [successor] enumerates the same family as {!substream} at O(1) jumps per
    stream. *)

val walk : t -> int -> (int -> t -> unit) -> t
(** [walk s n f] calls [f i (substream s i)] for [i = 0, ..., n - 1] in
    order and returns [substream s n], at one jump per stream. [f] may
    draw from the stream it is given; [s] itself is not disturbed. This
    is how replication runners visit consecutive substreams. *)

val split : t -> t
(** [split s] deterministically derives a stream whose seed is a hash of
    [s]'s next output, and advances [s] by one draw. Unlike {!substream},
    the result carries no non-overlap guarantee, but it is useful to hand a
    statistically independent stream to a component without sharing
    state. *)

val bits64 : t -> int64
(** [bits64 s] returns 64 uniformly random bits. *)

val float : t -> float
(** [float s] is uniform on [\[0, 1)], using the top 53 bits of one draw,
    so every value is a multiple of 2^-53 and 1.0 is never returned. *)

val float_pos : t -> float
(** [float_pos s] is uniform on [(0, 1]]: [1.0 -. float s]. Safe as an
    argument to [log]. *)

val float_range : t -> float -> float -> float
(** [float_range s lo hi] is uniform on [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int s n] is uniform on [{0, ..., n-1}], without modulo bias.
    Requires [0 < n <= 2^62]. *)

val bool : t -> bool
(** [bool s] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli s p] is [true] with probability [p]. Requires
    [0 <= p <= 1]. *)

val categorical : t -> float array -> int
(** [categorical s w] picks index [i] with probability [w.(i) / sum w].
    Weights must be non-negative with a positive sum. *)

val choose : t -> 'a array -> 'a
(** [choose s a] is a uniformly random element of [a]. [a] must be
    non-empty. *)

val choose_list : t -> 'a list -> 'a
(** [choose_list s l] is a uniformly random element of [l]. [l] must be
    non-empty. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle of the array, uniformly over permutations. *)

val seed_of : t -> int64
(** [seed_of s] returns the seed the stream family was created from (shared
    by all substreams); useful for logging reproducibility information. *)
