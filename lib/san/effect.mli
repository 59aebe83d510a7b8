(** Declarative effect IR.

    Activity effects are terms of a small declarative IR — integer/float
    expressions over the marking, set/increment ops, marking-guarded
    branches, and uniform picks — that

    {ul
    {- the executor runs as they are ({!apply}), drawing from the
       replication's stream at a [Pick];}
    {- structural analysis reads {e exactly} (symbolic incidence, no
       marking enumeration, no sampled modes);}
    {- analytical exploration enumerates without randomness: a [Pick]
       forks into its feasible branches with uniform weights
       ({!outcomes}).}} *)

type rel = Eq | Ne | Lt | Le | Gt | Ge

type iexpr =
  | Int of int
  | Mark of Place.t  (** current marking of an int place *)
  | Add of iexpr * iexpr
  | Sub of iexpr * iexpr
  | Mul of iexpr * iexpr
  | Ind of cond  (** 1 when the condition holds, else 0 *)

and cond =
  | Const of bool
  | Cmp of iexpr * rel * iexpr
  | All of cond list  (** conjunction; [All []] is true *)
  | Any of cond list  (** disjunction; [Any []] is false *)
  | Not of cond

type rexpr =
  | RConst of float  (** a literal *)
  | FMark of Place.fl  (** current marking of a float place *)
  | OfInt of iexpr  (** an integer expression, as a float *)
  | FAdd of rexpr * rexpr
  | FSub of rexpr * rexpr
  | FMul of rexpr * rexpr
  | FDiv of rexpr * rexpr
  | RIf of cond * rexpr * rexpr
      (** marking-dependent branch. Unlike an arithmetic encoding
          ([base * (1 + (mult-1)*ind)]), a branch keeps the exact float
          of each arm, so closure rates of the form
          [if c then base *. mult else base] port bit-identically. *)
(** Float expression over the marking, the serializable counterpart of
    a [Marking.t -> float] closure: a timing distribution's parameter, a
    case weight or an [FSet]/[FInc] value. A literal has one spelling,
    [RConst]; a branch may appear wherever an expression may. *)

type op =
  | Set of Place.t * iexpr  (** [p := e]; raises if the value is negative *)
  | Inc of Place.t * iexpr  (** [p := p + e]; reads and writes [p] *)
  | FSet of Place.fl * rexpr
  | FInc of Place.fl * rexpr

type t =
  | Skip
  | Ops of op list  (** executed in order (journal order matters) *)
  | Seq of t list
  | If of cond * t * t
  | Pick of (cond * t) list
      (** Uniform choice among the branches whose condition holds in the
          current marking. No feasible branch is an error. Exactly one
          feasible branch short-circuits without consuming randomness
          (matching the historical [choose_list] idiom); otherwise one
          random draw selects uniformly among the feasible branches. *)

(** {1 Evaluation} *)

val eval : Marking.t -> iexpr -> int
val holds : Marking.t -> cond -> bool

val reval : Marking.t -> rexpr -> float
(** Evaluate a float expression; performs the same float operations in
    the same order as {!rexpr_fn}. *)

val apply : Prng.Stream.t -> t -> Marking.t -> unit
(** [apply stream t m] runs the effect on the marking: the one semantics
    the executor fires. A [Pick] with several feasible branches draws
    one with [Prng.Stream.choose_list stream]. [Pick] with zero feasible
    branches and negative [Set] values raise. *)

exception Too_many_outcomes of int
(** One application forked into more outcomes than the cap it
    carries. *)

val outcomes : t -> Marking.t -> (float -> Marking.t -> unit) -> unit
(** [outcomes t m f] applies [t] analytically, forking at every [Pick]
    with more than one feasible branch (uniform weights), and calls
    [f w m'] on each outcome as soon as it is complete. The walk is
    depth-first: a [Pick] yields its second to last feasible branches,
    in order, before its first, and a [Seq] runs its rest on each
    outcome of its head in turn. Weights sum to 1. The input marking is
    consumed (it becomes the last outcome); forked branches work on
    copies, taken before any branch writes, whose journals do not extend
    the input's journal. [f] may keep or change the marking it is given.
    Raises {!Too_many_outcomes} once the fork tree exceeds 4096 outcomes,
    possibly after [f] has seen some of them. *)

(** {1 Static structure} *)

val cond_reads : cond -> int list
(** Sorted uids of places the condition reads. *)

val rexpr_reads : rexpr -> int list
(** Sorted uids of (int and float) places the float expression can
    read. *)

val static_reads : t -> int list
(** Sorted uids of places the effect can read (guards, expressions, and
    [Inc]/[FInc] targets — an increment reads its target, as
    {!Marking.add} does). *)

val static_writes : t -> int list
(** Sorted uids of places the effect can write. *)

(** {1 Closures} *)

val cond_fn : cond -> Marking.t -> bool
(** Compile a guard condition to a predicate closure (for
    [Activity.enabled]). *)

val rexpr_fn : rexpr -> Marking.t -> float
(** Compile a float expression to a closure. [rexpr_fn r m = reval m r]
    bit-for-bit; [RConst] compiles to a constant function and [RIf] to
    a compiled branch, every other node to [fun m -> reval m e]. *)

(** {1 Pretty-printing}

    Float constants print with [%g] when that reads back as the same
    float and with all 17 significant digits otherwise, so two different
    constants never print alike. *)

val pp_rel : Format.formatter -> rel -> unit
val pp_iexpr : Format.formatter -> iexpr -> unit
val pp_cond : Format.formatter -> cond -> unit
val pp_rexpr : Format.formatter -> rexpr -> unit
val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
