(** The ITUA replication-system SAN model (paper Sections 2–3).

    {!build} constructs the composed model of Figure 2(a): a [Replica] SAN
    replicated [num_reps] times and joined with a [Management] SAN per
    application, an application group replicated [num_apps] times, a
    [Host] SAN replicated into security domains, and everything joined
    through shared places. The returned {!handles} exposes the shared
    places the measures and the invariant checker need.

    Places and activities are both named by their composition path,
    through {!Compose.Ctx}: each activity is declared at the node that
    owns it ([apps.app[0].replica[1].attack_rep] at a replica slot,
    [apps.app[0].recovery] at an application,
    [security_domains.domain[2].host[0].attack_host] at a host, and
    [place_replicas] at the root), so {!handles.composition} lists every
    activity exactly once.

    Modeling notes (deviations from the Möbius encoding are listed in
    DESIGN.md):

    {ul
    {- Replica slots store the host they run on in an int place [on_host]
       (host id + 1; 0 = not placed) instead of the paper's application-id
       bit vectors.}
    {- Replica placement ([place_replicas]) picks a qualifying domain
       uniformly at random, then a live host within it uniformly, and
       starts a replica there for {e every} application that has a pending
       replica and no replica in that domain — the batching described for
       the Host SAN's [start_replica].}
    {- The exclusion cascade (shut down hosts, kill their replicas, convict
       their managers, request recoveries) runs inside one output-gate
       effect, preserving the paper's zero-time semantics.}
    {- IDS detection activities have a {e miss} case that latches
       [id_missed], so a missed intrusion is not retried; a missed corrupt
       replica can still be convicted by its replication group
       ([rep_misbehave]).}
    {- A detection whose management response condition does not currently
       hold stays pending and fires as soon as the condition holds (it is
       usually instantaneous anyway).}} *)

(** Places of one application replica slot. *)
type slot_places = {
  running : San.Place.t;  (** 1 while the replica is active *)
  corrupt : San.Place.t;  (** 1 while corrupt and undetected *)
  convicted : San.Place.t;  (** 1 while convicted, awaiting exclusion *)
  convicted_by_ids : San.Place.t;
      (** the conviction came from the host IDS (infiltration detected on
          the host) rather than from the replication group; under host
          exclusion only IDS convictions take the host down *)
  id_missed : San.Place.t;  (** IDS missed this corruption *)
  on_host : San.Place.t;  (** host id + 1; 0 when not placed *)
}

(** Shared places of one application (replication group + management). *)
type app_places = {
  replicas_running : San.Place.t;
  rep_corr_undetected : San.Place.t;
  rep_grp_failure : San.Place.t;
      (** latched on Byzantine failure, as in the paper *)
  need_recovery : San.Place.t;
  to_start : San.Place.t;  (** replicas awaiting placement *)
  slots : slot_places array;
}

(** Places of one host. *)
type host_places = {
  alive : San.Place.t;
  attacked : San.Place.t;
      (** 0 = clean, 1/2/3 = script / exploratory / innovative intrusion *)
  ever_attacked : San.Place.t;
      (** latched on the first intrusion; drives attack-spread propagation,
          which outlives the host's exclusion (the attacker's knowledge is
          not erased by shutting the host down) *)
  host_id_missed : San.Place.t;
  host_detected : San.Place.t;  (** detection pending a response *)
  mgr_running : San.Place.t;
  mgr_corrupt : San.Place.t;  (** manager corrupt and undetected *)
  mgr_id_missed : San.Place.t;
  mgr_detected : San.Place.t;
  num_replicas : San.Place.t;  (** replicas running on this host *)
  prop_dom_done : San.Place.t;
  prop_sys_done : San.Place.t;
}

(** Shared places of one security domain. *)
type domain_places = {
  excluded : San.Place.t;
  spread : San.Place.fl;  (** the paper's [attack_spread_domain] *)
  dom_mgrs_running : San.Place.t;
  dom_mgrs_corrupt : San.Place.t;
  has_app : San.Place.t array;
      (** per application: 1 if this domain hosts one of its replicas *)
  hosts : host_places array;
}

type handles = {
  params : Params.t;
  model : San.Model.t;
  apps : app_places array;
  domains : domain_places array;
  (* system-wide shared places *)
  mgrs_running : San.Place.t;
  undetected_corr_mgrs : San.Place.t;
  spread_system : San.Place.fl;
  (* measure accumulators, written by the exclusion effects *)
  excl_domains : San.Place.t;  (** number of domains excluded so far *)
  excl_hosts : San.Place.t;  (** hosts shut down by exclusions *)
  excl_corrupt_hosts : San.Place.t;
      (** of those, hosts that were corrupt (OS or manager) when shut *)
  excl_frac_sum : San.Place.fl;
      (** sum over domain exclusions of the corrupt-host fraction *)
  structure : string;  (** rendering of the composition tree *)
  composition : Compose.info;
      (** introspectable composition tree, with each node's places and
          activities, for the shared-place audit and the orbit pass *)
}

val build : Params.t -> handles

val rebind : Params.t -> model:San.Model.t -> composition:Compose.info -> handles
(** Handles for a model {e reloaded from disk} ([Serial],
    [itua_sim --model]) instead of built in-process. [rebind] runs
    {!build} on [params] — the parameter set the file was built with,
    carried in its ["params"] annotation — and checks that [model] holds
    every place of the built model under the same name, index and uid.
    It returns the built handles with [model], [composition] and its
    rendering in place of the built ones, so the measures and predicates
    work on the reloaded model unchanged. [Serial] emits and reloads
    places in uid order, so a saved file always passes; a file whose
    places were reordered, renamed or dropped raises [Invalid_argument]
    naming the first built place (in uid order) that does not match. *)

(* Derived state predicates used by measures and studies. *)

val improper : handles -> int -> San.Marking.t -> bool
(** [improper h a m]: application [a] suffers a Byzantine fault — at least
    one replica is corrupt (undetected) and the corrupt replicas are a
    third or more of the currently active ones
    ([corrupt > 0 && 3·corrupt >= running]). This is the event behind the
    paper's latched [rep_grp_failure] (set only by attacks on live
    replicas) and drives the {e unreliability} measure, whose Figure 3(b)
    peak at 4 hosts/domain exists precisely because a starved application
    cannot fail this way. *)

val starved : handles -> int -> San.Marking.t -> bool
(** [starved h a m]: application [a] has no running replicas (every domain
    able to host one has been excluded). *)

val unavailable : handles -> int -> San.Marking.t -> bool
(** [improper || starved]: service is not delivered properly, either
    through a Byzantine fault or because no replica is left. This drives
    the {e unavailability} measure — it is what links unavailability to
    running out of domains in Figure 3(a). *)

val host_of : handles -> int -> host_places
(** [host_of h g] is host [g] (global index [domain · hosts_per_domain +
    host]). *)

val num_hosts : handles -> int
