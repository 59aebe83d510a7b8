(** Möbius-style composed models: Replicate and Join over atomic SANs.

    In Möbius, a composed model is a tree whose leaves are atomic SANs and
    whose internal nodes are [Rep] (n structurally identical copies of a
    submodel) and [Join] (distinct submodels side by side); submodels
    communicate exclusively through {e shared places} held at an ancestor
    node. This module provides the same discipline on top of
    {!San.Model.Builder}:

    {ul
    {- a {!Ctx.t} carries the position in the composition tree and
       namespaces every place and activity it creates
       (["app[2].replica[3].corrupt"]), so generated names never collide;}
    {- places created at a node are {e shared} by every submodel built
       beneath it — sharing is expressed by ordinary lexical capture: build
       the place at the ancestor, pass it to the children;}
    {- {!replicate} and {!join} build the tree and record its shape, which
       {!structure} renders for inspection (mirroring the paper's
       Figure 2(a)).}}

    All submodels end up in one flat {!San.Model.t}, exactly like Möbius
    flattens a composed model before solution. *)

module Ctx : sig
  type t

  val root : San.Model.Builder.t -> string -> t
  (** [root builder name] is the composition-tree root. *)

  val builder : t -> San.Model.Builder.t
  val path : t -> string
  (** Dotted path of this node, e.g. ["itua.app[1].replica[4]"] (without
      the root name). *)

  val int_place : t -> ?init:int -> string -> San.Place.t
  (** Creates a namespaced int place owned by this node. A place created on
      a node is shared by (visible to) everything built below that node. *)

  val float_place : t -> ?init:float -> string -> San.Place.fl

  (** {2 Activities}

      A composed model names an activity in one way: through the node
      that owns it. *)

  val activity : t -> string -> string
  (** [activity ctx s] is [s] qualified with the node path
      (["app[1].replica[4].attack"]; [s] itself at the root), recorded as
      an activity of this node in {!info}. Pass it as [~name] to any
      {!San.Model.Builder} entry point, once per declared activity:
      [B.timed_dist_ir b ~name:(Compose.Ctx.activity ctx "repair") ...]. *)

  val timed_exp_rate_ir :
    t ->
    name:string ->
    ?policy:San.Activity.policy ->
    ?reads:San.Place.any list ->
    rate:San.Effect.rexpr ->
    guard:San.Effect.cond ->
    San.Effect.t ->
    unit
  (** [San.Model.Builder.timed_exp_rate_ir (builder ctx)
      ~name:(activity ctx name)]. [?reads] is ignored: the builder
      derives the activity's reads. Both exist only for the benchmark
      harness's [fleet] fixture, whose [~reads] list equals its guard's
      reads; new code calls {!activity}. *)
end

val replicate : Ctx.t -> string -> n:int -> (Ctx.t -> int -> 'a) -> 'a array
(** [replicate ctx label ~n build] creates [n] child contexts
    [label[0] .. label[n-1]] and applies [build] to each: the Rep node.
    Places the children create are local to each copy; places from [ctx]
    (or above) that [build] captures are the Rep node's shared places. *)

val join : Ctx.t -> string -> (Ctx.t -> 'a) -> 'a
(** [join ctx label build] creates one named child context: a branch of a
    Join node. Distinct branches of a Join are expressed as successive
    [join] calls on the same parent. *)

val structure : Ctx.t -> string
(** Rendering of the composition tree rooted at this node (indented, one
    node per line, with Rep cardinalities), computed from the
    [replicate]/[join] calls performed so far. *)

(** Introspection snapshot of one composition-tree node: which places and
    activities were created {e at} this node (places at an internal node
    are that node's shared places), and the children below it. Consumed
    by the [analysis] library's shared-place audit. A node carries no
    per-copy parameters: what tells two copies of a Rep apart is their
    activities' effect IR, which the orbit pass compares. *)
type info = {
  path : string;  (** dotted path, [""] for the root *)
  label : string;
  rep_copies : int option;  (** [Some n] on a Rep child *)
  places : San.Place.any list;  (** created via {!Ctx.int_place}/{!Ctx.float_place} *)
  activities : string list;  (** qualified names, declaration order *)
  children : info list;
}

val info : Ctx.t -> info
(** Snapshot of the tree rooted at this node, reflecting the
    [replicate]/[join] calls and declarations performed so far. *)

val render_info : info -> string
(** The {!structure} rendering, computed from an {!info} snapshot. The
    top node renders as the root; [structure ctx] is
    [render_info (info ctx)], so a composition tree reloaded from disk
    ([Serial]) prints identically to one built in-process. *)

val rep_families : info -> (string * info list) list
(** [rep_families n] groups the {e direct} Rep children of [n] into
    label families, in first-appearance order: one [replicate] call
    produces one family [("label", [copy 0; ...; copy n-1])]. Consumed
    by the [analysis] library's symmetry pass, which checks whether the
    copies of a family are structurally exchangeable. *)
