(** Checking passes over a marking space.

    The passes share one {e facts sweep} ({!gather}). Guard reads,
    effect reads and effect writes are read off the IR syntax
    ({!San.Effect.cond_reads}, {!San.Effect.static_reads},
    {!San.Effect.static_writes}); the closure forms — firing
    distributions and case weights — are evaluated on every marking in
    the {!Space.t} under {!San.Marking.trace_reads}. Both are
    accumulated into dense per-activity bitsets (place uids are dense,
    so a set of places is a [Bytes.t]). Each pass is then a pure scan
    over the facts.

    Effects are fired on scratch copies, for every case with positive
    weight, but only where the executor could actually fire them: timed
    activities at stable markings, instantaneous activities at vanishing
    ones. An effect that raises [Invalid_argument] (negative marking) is
    recorded as a fact rather than propagated. *)

type facts

val gather : Space.t -> facts
(** One evaluation sweep over [space.markings]. Deterministic for a
    fixed space. *)

val space : facts -> Space.t

val undeclared_reads : facts -> Diagnostic.t list
(** [A001]: a firing-distribution or case-weight closure read a place
    not in the activity's [reads] list — the executor will miss
    wake-ups. Always [Error]. Guards and effects are checked exactly by
    {!ir_decls}. *)

val negative_writes : facts -> Diagnostic.t list
(** [A003]: an effect drove an int place negative ([Invalid_argument]
    from {!San.Marking.set}) on a visited marking where the executor
    could have fired it. Always [Error]. *)

val ir_decls : facts -> Diagnostic.t list
(** [A013]: exact declaration checking against the IR syntax. A guard
    reading an undeclared place and an effect write that cannot wake a
    reader that uses the place without declaring it (in its guard,
    distribution or a weight) are [Error]s; effect reads beyond the
    declared list are one aggregated [Info] per activity (firing-time
    reads cannot miss wake-ups). *)

val liveness : facts -> Diagnostic.t list
(** [A004] dead activity (never enabled), [A005] never-written place,
    [A006] never-read place. [Warning] in exhaustive mode — over the
    full reachable space these are proofs; [Info] in sampled mode,
    where absence of evidence is weaker. *)

val instantaneous : facts -> Diagnostic.t list
(** [A007]: instantaneous firings failed to stabilize (vanishing-loop
    or executor divergence evidence in the space) — [Error]. [A008]: a
    visited marking enables two or more instantaneous activities at
    once, so behavior depends on the executor's uniform tie-break —
    [Warning], one diagnostic per distinct enabled set. *)

val composition : facts -> Compose.info -> Diagnostic.t list
(** [A009]: a place created at an {e internal} composition-tree node —
    a shared place — is neither declared, read, nor written by any
    activity in that node's subtree. The sharing the composition
    promises never happens. [Warning]. When a subtree recorded no
    activities (they were declared directly on the builder rather than
    through {!Compose.Ctx}), attribution is impossible and the audit
    degrades to checking the place against every activity in the
    model. *)

val all : ?composition:Compose.info -> facts -> Diagnostic.t list
(** Every pass, concatenated (the composition audit only when a tree is
    supplied), deduplicated and sorted by {!Diagnostic.compare}. *)
