(** Automorphism orbits of Replicate families: partial-symmetry
    detection with machine-checkable certificates.

    Sorting every copy of a Rep family into one canonical order assumes
    {e all} copies are exchangeable, and a structural-shape check cannot
    see behavioral asymmetries (a per-copy rate multiplier, an identity
    coupling like the ITUA model's [on_host] host ids). This pass closes
    both gaps, in the spirit of non-anonymous replication (Chiaradonna,
    Di Giandomenico & Masetti, arXiv:1608.05874): it computes the
    {e orbits} of the model's automorphism group restricted to copy
    permutations, so a partially symmetric family (five hosts at one
    attack rate, five at another) still lumps within each orbit.

    The algorithm is a partition refinement over the colored
    place/activity incidence structure read off the effect IR:

    {ol
    {- {b Initial coloring.} Copies of a family are partitioned by
       structural signature alone (relative place layout, kinds, initial
       markings, relative activity names). Copies with different
       signatures can never share an orbit. Everything else that tells
       copies apart, a per-copy rate included, lives in the effect IR
       and is found by the next step.}
    {- {b Refinement by certificate.} Within a color class, copy [c]
       joins the orbit of representative [r] iff the copy transposition
       [(r c)] is a verified automorphism: renaming every place of [r]
       to its aligned counterpart in [c] (and vice versa) throughout
       every activity's guard, rate expression, timing distribution,
       case weights and effect terms — then normalizing commutative
       structure (integer [Add]/[Mul] chains, [All]/[Any] conjunct
       order, [Pick] branch order, independent [Ops] blocks; float
       arithmetic is {e never} reassociated) — must reproduce the
       model's activities exactly. Each activity's renamed shape is an
       IR value (timing policy, distribution family and parameters,
       guard, sorted [(weight, effect)] cases; its reads are a function
       of these, so they are not compared apart) compared
       with its partner's by [Stdlib.compare]: float constants are
       compared as floats, so two rates one ulp apart never share an
       orbit ([compare] equates only [0.0] with [-0.0], and NaN with
       NaN). Verified transpositions are the generator witnesses of
       diagnostic A017; since they share the representative, they
       generate the full symmetric group on the orbit.}}

    A transposition that fails to verify splits the orbit and yields an
    A018 diagnostic naming the activity, its first differing component
    (timing, distribution, guard or cases) and, on one line, the
    first pair of differing sub-terms in it — for the full ITUA model
    that is the [on_host] identity coupling, reported honestly instead
    of silently mis-lumped. Nothing is printed for an activity that
    verifies.

    {!canon} maps a state key to the representative of its orbit under
    the {e verified} group only: per family (deepest first), per orbit,
    the member sub-vectors are sorted — copies in different orbits are
    never mixed. Feed it to {!Ctmc.Explore.explore}'s [?canon]
    (optionally with [~audit:true], which cross-checks one-step
    lumpability on every encountered state). That audit is also the
    check for a {e caller-supplied} canon: one that merges states the
    refinement distinguishes (a whole-family sort applied to a
    heterogeneous family, say) raises {!Ctmc.Explore.Unsound_canon}. *)

(** One orbit of exchangeable copies within a family. *)
type orbit = {
  ob_members : int list;  (** copy indices, ascending *)
  ob_int_slots : int array array;
      (** per member (in [ob_members] order): the marking-array indices
          of the copy's int places, aligned across members *)
  ob_float_slots : int array array;
}

(** Why two specific copies do not share an orbit. *)
type break_ = {
  bk_copy_a : int;
  bk_copy_b : int;
  bk_reason : string;
      (** names the place, activity or rate that splits the
          orbit *)
}

type family = {
  fa_path : string;  (** the family's dotted path, e.g. ["domain"] *)
  fa_copies : int;
  fa_depth : int;  (** nesting depth; deeper families canonicalize first *)
  fa_orbits : orbit list;
      (** a partition of [0 .. fa_copies-1], ordered by smallest
          member *)
  fa_witnesses : (int * int) list;
      (** verified transpositions [(r, c)], the A017 generator
          witnesses; transpositions sharing [r] generate the full
          symmetric group on [r]'s orbit *)
  fa_breaks : break_ list;
}

type report = {
  families : family list;  (** deepest first — the {!canon} order *)
  pure : bool;
      (** the whole model is declaratively readable (no closure
          distributions or case weights); orbits of an impure model are
          all singletons *)
  blockers : string list;
      (** when not {!pure}: which activities block static reading *)
}

val analyse : San.Model.t -> Compose.info -> report
(** Computes the orbit partition of every Rep family with two or more
    copies. Deterministic: depends only on the model and composition
    tree. *)

val canon :
  report -> int array * float array -> int array * float array
(** The orbit-restricted canonical representative: for each family,
    deepest first, each orbit's member sub-vectors are sorted
    lexicographically. Pure — input arrays are not mutated. Sound by
    construction: only verified exchangeability is exploited, so it can
    be fed to {!Ctmc.Explore.explore} without a lumped-vs-unlumped
    validation (running one anyway, as the [ctmc_exact] benchmark does,
    validates this module instead). *)

val diagnostics : report -> Diagnostic.t list
(** The certificate as diagnostics: one A017 orbit report per analysed
    family (orbit classes + generator witnesses), one A018 per broken
    symmetry, each with the family's composition path as source.
    Sorted by {!Diagnostic.compare}. This is the report's only text
    rendering. *)

val to_json : report -> Report.Json.t
(** Deterministic JSON of the full report (families, orbits, witnesses,
    breaks) — embedded by [itua_sim check --symmetry --json]. *)
