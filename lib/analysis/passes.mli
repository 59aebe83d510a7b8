(** Checking passes over a marking space.

    The passes share one {e facts sweep} ({!gather}). Each activity's
    reads (its [reads] list and {!San.Effect.static_reads}) and writes
    ({!San.Effect.static_writes}) are read off the IR syntax, so they
    are exact for every activity, enabled or not; a closure timing
    ([dist_ir = None]) reads every place. They are accumulated into
    dense per-activity bitsets (place uids are dense, so a set of
    places is a [Bytes.t]). Each pass is then a pure scan over the
    facts.

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

val negative_writes : facts -> Diagnostic.t list
(** [A003]: an effect drove an int place negative ([Invalid_argument]
    from {!San.Marking.set}) on a visited marking where the executor
    could have fired it. Always [Error]. *)

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
    a shared place — is neither read nor written by any activity in that
    node's subtree. The sharing the composition promises never happens.
    [Warning]. Activities are attributed to the node that named them
    through {!Compose.Ctx.activity}. Only when a subtree records no
    activities at all — for example a composition tree saved before its
    model named activities that way — is attribution impossible, and the
    audit degrades to checking the place against every activity in the
    model. *)

val all : ?composition:Compose.info -> facts -> Diagnostic.t list
(** Every pass, concatenated (the composition audit only when a tree is
    supplied), deduplicated and sorted by {!Diagnostic.compare}. *)
