module P = San.Place
module M = San.Marking
module E = San.Effect
module B = San.Model.Builder

type slot_places = {
  running : P.t;
  corrupt : P.t;
  convicted : P.t;
  convicted_by_ids : P.t;
  id_missed : P.t;
  on_host : P.t;
}

type app_places = {
  replicas_running : P.t;
  rep_corr_undetected : P.t;
  rep_grp_failure : P.t;
  need_recovery : P.t;
  to_start : P.t;
  slots : slot_places array;
}

type host_places = {
  alive : P.t;
  attacked : P.t;
  ever_attacked : P.t;
  host_id_missed : P.t;
  host_detected : P.t;
  mgr_running : P.t;
  mgr_corrupt : P.t;
  mgr_id_missed : P.t;
  mgr_detected : P.t;
  num_replicas : P.t;
  prop_dom_done : P.t;
  prop_sys_done : P.t;
}

type domain_places = {
  excluded : P.t;
  spread : P.fl;
  dom_mgrs_running : P.t;
  dom_mgrs_corrupt : P.t;
  has_app : P.t array;
  hosts : host_places array;
}

type handles = {
  params : Params.t;
  model : San.Model.t;
  apps : app_places array;
  domains : domain_places array;
  mgrs_running : P.t;
  undetected_corr_mgrs : P.t;
  spread_system : P.fl;
  excl_domains : P.t;
  excl_hosts : P.t;
  excl_corrupt_hosts : P.t;
  excl_frac_sum : P.fl;
  structure : string;
  composition : Compose.info;
}

(* The handles minus the built model, used while declaring activities. *)
type skeleton = {
  p : Params.t;
  s_apps : app_places array;
  s_domains : domain_places array;
  s_mgrs_running : P.t;
  s_undetected : P.t;
  s_spread_sys : P.fl;
  s_excl_domains : P.t;
  s_excl_hosts : P.t;
  s_excl_corrupt : P.t;
  s_excl_frac : P.fl;
}

let nh sk = sk.p.Params.hosts_per_domain
let host_places_of sk g = sk.s_domains.(g / nh sk).hosts.(g mod nh sk)
let domain_idx sk g = g / nh sk

(* --- IR condition vocabulary ---

   The same predicates as declarative {!San.Effect.cond} terms, so both
   activity guards and effect branches are exactly readable by
   structural analysis. *)

let pe p k = E.Cmp (E.Mark p, E.Eq, E.Int k)
let pgt p k = E.Cmp (E.Mark p, E.Gt, E.Int k)

let sum_exprs = function
  | [] -> E.Int 0
  | e :: es -> List.fold_left (fun a b -> E.Add (a, b)) e es

let dom_group_ok_c sk d =
  let dp = sk.s_domains.(d) in
  E.Cmp
    (E.Mul (E.Int 3, E.Mark dp.dom_mgrs_corrupt), E.Lt, E.Mark dp.dom_mgrs_running)

let quorum_ok_c sk =
  E.Cmp (E.Mul (E.Int 3, E.Mark sk.s_undetected), E.Lt, E.Mark sk.s_mgrs_running)

let app_improper_c sk a =
  let ap = sk.s_apps.(a) in
  E.All
    [
      pgt ap.rep_corr_undetected 0;
      E.Cmp
        ( E.Mul (E.Int 3, E.Mark ap.rep_corr_undetected),
          E.Ge,
          E.Mark ap.replicas_running );
    ]

let host_is_corrupt_c sk g =
  let hp = host_places_of sk g in
  E.Any [ pgt hp.attacked 0; pe hp.mgr_corrupt 1; pe hp.mgr_detected 1 ]

(* --- effect IR helpers (the exclusion cascade) ---

   Op order inside every helper reproduces the historical closure
   effects write-for-write: the marking journal is first-change-ordered
   and drives both dependency propagation and [Resample] re-draws, so
   preserving write order preserves bit-identical trajectories.

   [build] calls each cascade helper once per host or domain and hands
   the resulting term to every activity that needs it, so the cascade
   is one shared sub-term rather than a copy inside every response
   effect. *)

let check_byzantine_e sk a =
  E.If
    ( app_improper_c sk a,
      E.Ops [ E.Set (sk.s_apps.(a).rep_grp_failure, E.Int 1) ],
      E.Skip )

(* Kill the replica in slot [r] of app [a], known to run on host [g]. *)
let kill_replica_e sk a r g =
  let ap = sk.s_apps.(a) in
  let sl = ap.slots.(r) in
  E.Seq
    [
      E.Ops [ E.Set (sl.running, E.Int 0); E.Inc (ap.replicas_running, E.Int (-1)) ];
      E.If
        ( pe sl.corrupt 1,
          E.Ops
            [
              E.Set (sl.corrupt, E.Int 0);
              E.Inc (ap.rep_corr_undetected, E.Int (-1));
            ],
          E.Skip );
      E.Ops
        [
          E.Set (sl.convicted, E.Int 0);
          E.Set (sl.convicted_by_ids, E.Int 0);
          E.Set (sl.id_missed, E.Int 0);
          E.Set (sl.on_host, E.Int 0);
          E.Inc ((host_places_of sk g).num_replicas, E.Int (-1));
          E.Set (sk.s_domains.(domain_idx sk g).has_app.(a), E.Int 0);
          E.Inc (ap.need_recovery, E.Int 1);
        ];
      check_byzantine_e sk a;
    ]

(* [kill_replica.(a).(r)] is [kill_replica_e sk a r g]. *)
let kill_host_e sk kill_replica g =
  let hp = host_places_of sk g in
  let d = domain_idx sk g in
  let dp = sk.s_domains.(d) in
  (* Kill every replica running on this host. *)
  let kill_reps =
    Array.to_list
      (Array.mapi
         (fun a ap ->
           Array.to_list
             (Array.mapi
                (fun r sl ->
                  E.If
                    ( E.All [ pe sl.running 1; pe sl.on_host (g + 1) ],
                      kill_replica.(a).(r),
                      E.Skip ))
                ap.slots))
         sk.s_apps)
    |> List.concat
  in
  (* Remove the manager from both group counts, then clear the host. *)
  E.Seq
    (kill_reps
    @ [
        E.If
          ( pe hp.mgr_running 1,
            E.Seq
              [
                E.Ops
                  [
                    E.Inc (sk.s_mgrs_running, E.Int (-1));
                    E.Inc (dp.dom_mgrs_running, E.Int (-1));
                  ];
                E.If
                  ( pe hp.mgr_corrupt 1,
                    E.Ops
                      [
                        E.Inc (sk.s_undetected, E.Int (-1));
                        E.Inc (dp.dom_mgrs_corrupt, E.Int (-1));
                      ],
                    E.Skip );
                E.Ops [ E.Set (hp.mgr_running, E.Int 0) ];
              ],
            E.Skip );
        E.Ops
          [
            E.Set (hp.alive, E.Int 0);
            E.Set (hp.attacked, E.Int 0);
            E.Set (hp.mgr_corrupt, E.Int 0);
            E.Set (hp.host_detected, E.Int 0);
            E.Set (hp.host_id_missed, E.Int 0);
            E.Set (hp.mgr_detected, E.Int 0);
            E.Set (hp.mgr_id_missed, E.Int 0);
          ];
      ])

(* [kill_host.(g)] is host [g]'s [kill_host_e] term. *)
let exclude_domain_e sk kill_host d =
  let dp = sk.s_domains.(d) in
  (* Measure accounting first: fraction of corrupt hosts at exclusion,
     counted by indicator sums evaluated before any host is killed. *)
  let alive_cnt =
    sum_exprs
      (Array.to_list (Array.map (fun hp -> E.Ind (pe hp.alive 1)) dp.hosts))
  in
  let corrupt_cnt =
    sum_exprs
      (Array.to_list
         (Array.mapi
            (fun h hp ->
              E.Ind
                (E.All [ pe hp.alive 1; host_is_corrupt_c sk ((d * nh sk) + h) ]))
            dp.hosts))
  in
  E.If
    ( pe dp.excluded 0,
      E.Seq
        ([
           E.Ops
             [
               E.Inc (sk.s_excl_domains, E.Int 1);
               E.Inc (sk.s_excl_hosts, alive_cnt);
               E.Inc (sk.s_excl_corrupt, corrupt_cnt);
             ];
           E.If
             ( E.Cmp (alive_cnt, E.Gt, E.Int 0),
               E.Ops
                 [
                   E.FInc
                     ( sk.s_excl_frac,
                       E.FDiv (E.OfInt corrupt_cnt, E.OfInt alive_cnt) );
                 ],
               E.Skip );
         ]
        @ Array.to_list
            (Array.mapi
               (fun h hp ->
                 E.If (pe hp.alive 1, kill_host.((d * nh sk) + h), E.Skip))
               dp.hosts)
        @ [ E.Ops [ E.Set (dp.excluded, E.Int 1) ] ]),
      E.Skip )

let exclude_host_e sk kill_host g =
  let hp = host_places_of sk g in
  E.If
    ( pe hp.alive 1,
      E.Seq
        [
          E.Ops [ E.Inc (sk.s_excl_hosts, E.Int 1) ];
          E.If
            ( host_is_corrupt_c sk g,
              E.Ops [ E.Inc (sk.s_excl_corrupt, E.Int 1) ],
              E.Skip );
          kill_host.(g);
        ],
      E.Skip )

(* Start one replica of application [a] on host [g]: a [Pick] over the
   free slots (uniform; slots are exchangeable, and a single free slot
   consumes no randomness — the paper's enable_rep race does the same). *)
let start_replica_e sk a g =
  let ap = sk.s_apps.(a) in
  E.Pick
    (Array.to_list
       (Array.mapi
          (fun _r sl ->
            ( pe sl.running 0,
              E.Ops
                [
                  E.Set (sl.running, E.Int 1);
                  E.Set (sl.on_host, E.Int (g + 1));
                  E.Inc (ap.replicas_running, E.Int 1);
                  E.Inc ((host_places_of sk g).num_replicas, E.Int 1);
                  E.Set (sk.s_domains.(domain_idx sk g).has_app.(a), E.Int 1);
                  E.Inc (ap.to_start, E.Int (-1));
                ] ))
          ap.slots))

(* --- model construction --- *)

let build params =
  let p = Params.check params in
  let nd = p.Params.num_domains in
  let nhosts = p.Params.hosts_per_domain in
  let na = p.Params.num_apps in
  let nr = p.Params.num_reps in
  let b = B.create "itua" in
  let root = Compose.Ctx.root b "itua" in

  (* System-wide shared places. *)
  let mgrs_running =
    Compose.Ctx.int_place root ~init:(nd * nhosts) "mgrs_running"
  in
  let undetected = Compose.Ctx.int_place root "undetected_corr_mgrs" in
  let spread_sys = Compose.Ctx.float_place root "attack_spread_system" in
  let excl_domains = Compose.Ctx.int_place root "excluded_domains" in
  let excl_hosts = Compose.Ctx.int_place root "excluded_hosts" in
  let excl_corrupt = Compose.Ctx.int_place root "excluded_corrupt_hosts" in
  let excl_frac = Compose.Ctx.float_place root "excluded_corrupt_fraction_sum" in

  (* Composition tree, phase 1: places.  Activities are added afterwards
     because Replica and Host submodels read each other's shared state;
     each node's context is kept so phase 2 declares every activity at
     the node that owns it. *)
  let app_nodes =
    Compose.join root "apps" (fun apps_ctx ->
        Compose.replicate apps_ctx "app" ~n:na (fun app_ctx _a ->
            let replicas_running =
              Compose.Ctx.int_place app_ctx "replicas_running"
            in
            let rep_corr_undetected =
              Compose.Ctx.int_place app_ctx "rep_corr_undetected"
            in
            let rep_grp_failure =
              Compose.Ctx.int_place app_ctx "rep_grp_failure"
            in
            let need_recovery = Compose.Ctx.int_place app_ctx "need_recovery" in
            let to_start = Compose.Ctx.int_place app_ctx ~init:nr "to_start" in
            let slot_nodes =
              Compose.replicate app_ctx "replica" ~n:nr (fun r_ctx _r ->
                  ( r_ctx,
                    {
                      running = Compose.Ctx.int_place r_ctx "running";
                      corrupt = Compose.Ctx.int_place r_ctx "corrupt";
                      convicted = Compose.Ctx.int_place r_ctx "convicted";
                      convicted_by_ids =
                        Compose.Ctx.int_place r_ctx "convicted_by_ids";
                      id_missed = Compose.Ctx.int_place r_ctx "id_missed";
                      on_host = Compose.Ctx.int_place r_ctx "on_host";
                    } ))
            in
            ( app_ctx,
              Array.map fst slot_nodes,
              {
                replicas_running;
                rep_corr_undetected;
                rep_grp_failure;
                need_recovery;
                to_start;
                slots = Array.map snd slot_nodes;
              } )))
  in
  let apps = Array.map (fun (_, _, ap) -> ap) app_nodes in
  let domain_nodes =
    Compose.join root "security_domains" (fun doms_ctx ->
        Compose.replicate doms_ctx "domain" ~n:nd (fun d_ctx _ ->
            let excluded = Compose.Ctx.int_place d_ctx "excluded" in
            let spread = Compose.Ctx.float_place d_ctx "attack_spread_domain" in
            let dom_mgrs_running =
              Compose.Ctx.int_place d_ctx ~init:nhosts "dom_mgrs_running"
            in
            let dom_mgrs_corrupt =
              Compose.Ctx.int_place d_ctx "dom_mgrs_corrupt"
            in
            let has_app =
              Array.init na (fun a ->
                  Compose.Ctx.int_place d_ctx (Printf.sprintf "has_app[%d]" a))
            in
            let host_nodes =
              Compose.replicate d_ctx "host" ~n:nhosts (fun h_ctx _ ->
                  ( h_ctx,
                    {
                      alive = Compose.Ctx.int_place h_ctx ~init:1 "alive";
                      attacked = Compose.Ctx.int_place h_ctx "attacked";
                      ever_attacked =
                        Compose.Ctx.int_place h_ctx "ever_attacked";
                      host_id_missed =
                        Compose.Ctx.int_place h_ctx "host_id_missed";
                      host_detected =
                        Compose.Ctx.int_place h_ctx "host_detected";
                      mgr_running =
                        Compose.Ctx.int_place h_ctx ~init:1 "mgr_running";
                      mgr_corrupt = Compose.Ctx.int_place h_ctx "mgr_corrupt";
                      mgr_id_missed =
                        Compose.Ctx.int_place h_ctx "mgr_id_missed";
                      mgr_detected = Compose.Ctx.int_place h_ctx "mgr_detected";
                      num_replicas = Compose.Ctx.int_place h_ctx "num_replicas";
                      prop_dom_done =
                        Compose.Ctx.int_place h_ctx "prop_dom_done";
                      prop_sys_done =
                        Compose.Ctx.int_place h_ctx "prop_sys_done";
                    } ))
            in
            ( Array.map fst host_nodes,
              {
                excluded;
                spread;
                dom_mgrs_running;
                dom_mgrs_corrupt;
                has_app;
                hosts = Array.map snd host_nodes;
              } )))
  in
  let domains = Array.map snd domain_nodes in
  let structure = Compose.structure root in
  let sk =
    {
      p;
      s_apps = apps;
      s_domains = domains;
      s_mgrs_running = mgrs_running;
      s_undetected = undetected;
      s_spread_sys = spread_sys;
      s_excl_domains = excl_domains;
      s_excl_hosts = excl_hosts;
      s_excl_corrupt = excl_corrupt;
      s_excl_frac = excl_frac;
    }
  in

  (* The exclusion cascade, one term per replica slot and host, per host
     and per domain (see the effect IR helpers above). *)
  let ng = nd * nhosts in
  let kill_replica =
    Array.init ng (fun g ->
        Array.init na (fun a ->
            Array.init nr (fun r -> kill_replica_e sk a r g)))
  in
  let kill_host = Array.init ng (fun g -> kill_host_e sk kill_replica.(g) g) in
  let exclude_domain = Array.init nd (exclude_domain_e sk kill_host) in
  let exclude_host = Array.init ng (exclude_host_e sk kill_host) in
  (* Management response to a detection concerning host [g]. *)
  let respond_e g =
    match p.Params.policy with
    | Params.Domain_exclusion -> exclude_domain.(domain_idx sk g)
    | Params.Host_exclusion -> exclude_host.(g)
  in

  (* IDS decision latency: Erlang with the configured stage count and
     mean 1/ids_decision_rate (exponential when stages = 1). *)
  let ids_latency_dist =
    if p.Params.ids_latency_stages = 1 then
      San.Activity.DExp (E.RConst p.Params.ids_decision_rate)
    else
      San.Activity.DErlang
        ( p.Params.ids_latency_stages,
          E.RConst
            (float_of_int p.Params.ids_latency_stages
            *. p.Params.ids_decision_rate) )
  in
  let ids_cases b ~name ~guard cases =
    B.timed_dist_ir b ~name ~dist:ids_latency_dist ~guard
      (List.map
         (fun (w, eff) -> San.Activity.make_case ~weight:(E.RConst w) eff)
         cases)
  in
  (* Is the replica's host corrupt?  Only meaningful while running.  The
     disjunction short-circuits host by host, reading the same places as
     the historical closure [on_host matches before attacked is read]. *)
  let slot_host_corrupt_c sl =
    E.Any
      (List.init (nd * nhosts) (fun g ->
           E.All
             [ pe sl.on_host (g + 1); pgt (host_places_of sk g).attacked 0 ]))
  in

  (* [by_ids] records whether the conviction came from the host's IDS
     (an infiltration detected on the host itself) or from the replication
     group; under host exclusion only the former takes the host down. *)
  let convict_e ~by_ids a sl =
    E.Seq
      [
        E.Ops
          (E.Set (sl.convicted, E.Int 1)
          :: (if by_ids then [ E.Set (sl.convicted_by_ids, E.Int 1) ] else []));
        E.If
          ( pe sl.corrupt 1,
            E.Ops
              [
                E.Set (sl.corrupt, E.Int 0);
                E.Inc (apps.(a).rep_corr_undetected, E.Int (-1));
              ],
            E.Skip );
      ]
  in
  (* The miss branch of an IDS decision latches [id_missed] only when
     misses are sticky — otherwise the decision is retried. *)
  let miss_e pl =
    if p.Params.ids_misses_sticky then E.Ops [ E.Set (pl, E.Int 1) ] else E.Skip
  in
  (* Dispatch on the (dynamic) host a replica runs on: an if-else chain
     over [on_host], which structural analysis reads as guarded branches
     with statically known deltas. *)
  let dispatch_host sl eff_of_g =
    let rec chain g =
      if g >= nd * nhosts then E.Skip
      else E.If (pe sl.on_host (g + 1), eff_of_g g, chain (g + 1))
    in
    chain 0
  in
  let on_host_in_domain sl d =
    E.All
      [
        E.Cmp (E.Mark sl.on_host, E.Ge, E.Int ((d * nhosts) + 1));
        E.Cmp (E.Mark sl.on_host, E.Le, E.Int ((d + 1) * nhosts));
      ]
  in
  let dispatch_domain sl eff_of_d =
    let rec chain d =
      if d >= nd then E.Skip
      else E.If (on_host_in_domain sl d, eff_of_d d, chain (d + 1))
    in
    chain 0
  in

  (* --- Replica submodel activities --- *)
  Array.iteri
    (fun a (_, slot_ctxs, ap) ->
      Array.iteri
        (fun r sl ->
          let name = Compose.Ctx.activity slot_ctxs.(r) in
          (* attack_rep: successful attack on the replica; faster when its
             host is corrupt. *)
          B.timed_exp_rate_ir b
            ~name:(name "attack_rep")
            ~rate:
              (let base = Params.replica_attack_rate p in
               E.RIf
                 ( slot_host_corrupt_c sl,
                   E.RConst (base *. p.Params.corruption_multiplier),
                   E.RConst (base *. 1.0) ))
            ~guard:(E.All [ pe sl.running 1; pe sl.corrupt 0; pe sl.convicted 0 ])
            (E.Seq
               [
                 E.Ops
                   [
                     E.Set (sl.corrupt, E.Int 1);
                     E.Inc (ap.rep_corr_undetected, E.Int 1);
                   ];
                 check_byzantine_e sk a;
               ]);
          (* valid_ID: the host IDS decides; a miss is final. *)
          ids_cases b
            ~name:(name "valid_ID")
            ~guard:
              (E.All [ pe sl.corrupt 1; pe sl.convicted 0; pe sl.id_missed 0 ])
            [
              (p.Params.p_detect_replica, convict_e ~by_ids:true a sl);
              (1.0 -. p.Params.p_detect_replica, miss_e sl.id_missed);
            ];
          (* rep_misbehave: anomalous behaviour during group communication
             is always caught while the group can reach agreement. *)
          if p.Params.misbehave_rate > 0.0 then
            B.timed_exp_rate_ir b
              ~name:(name "rep_misbehave")
              ~rate:(E.RConst p.Params.misbehave_rate)
              ~guard:
                (E.All
                   [
                     pe sl.corrupt 1;
                     pe sl.convicted 0;
                     E.Cmp
                       ( E.Mul (E.Int 3, E.Mark ap.rep_corr_undetected),
                         E.Lt,
                         E.Mark ap.replicas_running );
                   ])
              (convict_e ~by_ids:false a sl);
          (* false_ID: per the paper this activity is enabled only once
             the replica has been intruded — an additional, unconditional
             IDS flagging channel for corrupt replicas (it can catch one
             that valid_ID missed).  Host-level false alarms, by contrast,
             really do hit clean hosts; see false_ID on the Host SAN. *)
          if Params.replica_false_alarm_rate p > 0.0 then
            B.timed_exp_rate_ir b
              ~name:(name "false_ID")
              ~rate:(E.RConst (Params.replica_false_alarm_rate p))
              ~guard:(E.All [ pe sl.corrupt 1; pe sl.convicted 0 ])
              (convict_e ~by_ids:true a sl);
          (* Response to a conviction.  Domain exclusion always convicts
             the domain that had the corrupt replica; host exclusion takes
             the host down only when the infiltration was detected on it
             (IDS conviction) and otherwise just kills and replaces the
             convicted replica. *)
          B.instantaneous_ir b
            ~name:(name "respond_conviction")
            ~guard:
              (E.All
                 [
                   pe sl.convicted 1;
                   pe sl.running 1;
                   E.Any
                     (quorum_ok_c sk
                     :: List.init nd (fun d ->
                            E.All [ on_host_in_domain sl d; dom_group_ok_c sk d ]));
                 ])
            (match p.Params.policy with
            | Params.Domain_exclusion ->
                dispatch_domain sl (fun d -> exclude_domain.(d))
            | Params.Host_exclusion ->
                E.If
                  ( pe sl.convicted_by_ids 1,
                    dispatch_host sl (fun g -> exclude_host.(g)),
                    dispatch_host sl (fun g -> kill_replica.(g).(a).(r)) )))
        ap.slots)
    app_nodes;

  (* --- Management submodel activities (one per application) --- *)
  Array.iter
    (fun (app_ctx, _, ap) ->
      B.timed_exp_rate_ir b
        ~name:(Compose.Ctx.activity app_ctx "recovery")
        ~rate:(E.RConst p.Params.recovery_rate)
        ~guard:
          (if p.Params.quorum_gates_recovery then
             E.All [ pgt ap.need_recovery 0; quorum_ok_c sk ]
           else pgt ap.need_recovery 0)
        (E.Ops
           [ E.Inc (ap.need_recovery, E.Int (-1)); E.Inc (ap.to_start, E.Int 1) ]))
    app_nodes;

  (* --- Replica placement (the Host SANs' start_replica race) --- *)
  let domain_qualifies_c d a =
    let dp = domains.(d) in
    E.All
      [
        pe dp.excluded 0;
        pe dp.has_app.(a) 0;
        E.Any (Array.to_list (Array.map (fun hp -> pe hp.alive 1) dp.hosts));
      ]
  in
  (* Pick a qualifying domain uniformly, a live host within it uniformly,
     then start a replica there for every application with a pending
     replica and no replica in that domain.  Forced choices (singleton
     [Pick] branches) consume no randomness, so configurations whose
     placement is deterministic (e.g. one domain with one host) remain
     explorable by the analytical CTMC path. *)
  B.instantaneous_ir b
    ~name:(Compose.Ctx.activity root "place_replicas")
    ~guard:
      (E.Any
         (List.init na (fun a ->
              E.All
                [
                  pgt apps.(a).to_start 0;
                  E.Any (List.init nd (fun d -> domain_qualifies_c d a));
                ])))
    (E.Pick
       (List.init nd (fun d ->
            ( E.Any
                (List.init na (fun a ->
                     E.All [ pgt apps.(a).to_start 0; domain_qualifies_c d a ])),
              E.Pick
                (List.init nhosts (fun h ->
                     ( pe domains.(d).hosts.(h).alive 1,
                       E.Seq
                         (List.init na (fun a ->
                              E.If
                                ( E.All
                                    [
                                      pgt apps.(a).to_start 0;
                                      domain_qualifies_c d a;
                                    ],
                                  start_replica_e sk a ((d * nhosts) + h),
                                  E.Skip )))) )) ))));

  (* --- Host submodel activities --- *)
  for g = 0 to (nd * nhosts) - 1 do
    let d = domain_idx sk g in
    let name = Compose.Ctx.activity (fst domain_nodes.(d)).(g mod nhosts) in
    let dp = domains.(d) in
    let hp = host_places_of sk g in
    (* attack_host: three attack classes; the rate grows linearly with the
       accumulated intra-domain and system-wide spread. *)
    B.timed_exp_cases_rate_ir b
      ~name:(name "attack_host")
      ~rate:
        (E.FAdd
           ( E.RConst (Params.host_attack_rate_of p g),
             E.FMul
               ( E.RConst (Params.host_spread_slope p),
                 E.FAdd (E.FMark dp.spread, E.FMark spread_sys) ) ))
      ~guard:(E.All [ pe hp.alive 1; pe hp.attacked 0 ])
      (let corrupt_as cls =
         E.Ops
           [ E.Set (hp.attacked, E.Int cls); E.Set (hp.ever_attacked, E.Int 1) ]
       in
       [
         (p.Params.frac_script, corrupt_as 1);
         (p.Params.frac_exploratory, corrupt_as 2);
         (p.Params.frac_innovative, corrupt_as 3);
       ]);
    (* Attack spread, exactly once per corrupted host.  Keyed on
       [ever_attacked], not on the host's survival: what spreads is the
       attacker's knowledge gained from the successful intrusion, which
       excluding the compromised host does not erase. *)
    if p.Params.spread_rate_domain > 0.0 then
      B.timed_exp_rate_ir b
        ~name:(name "propagate_domain")
        ~rate:(E.RConst p.Params.spread_rate_domain)
        ~guard:
          (let base = [ pe hp.ever_attacked 1; pe hp.prop_dom_done 0 ] in
           E.All
             (if p.Params.spread_outlives_host then base
              else base @ [ pe hp.alive 1 ]))
        (E.Ops
           [
             E.FInc (dp.spread, E.RConst p.Params.spread_effect_domain);
             E.Set (hp.prop_dom_done, E.Int 1);
           ]);
    if p.Params.spread_rate_system > 0.0 then
      B.timed_exp_rate_ir b
        ~name:(name "propagate_sys")
        ~rate:(E.RConst p.Params.spread_rate_system)
        ~guard:
          (let base = [ pe hp.ever_attacked 1; pe hp.prop_sys_done 0 ] in
           E.All
             (if p.Params.spread_outlives_host then base
              else base @ [ pe hp.alive 1 ]))
        (E.Ops
           [
             E.FInc (spread_sys, E.RConst p.Params.spread_effect_system);
             E.Set (hp.prop_sys_done, E.Int 1);
           ]);
    (* Host-level IDS, one activity per attack class. *)
    List.iter
      (fun (suffix, cls, prob) ->
        ids_cases b
          ~name:(name suffix)
          ~guard:
            (E.All
               [
                 pe hp.alive 1;
                 pe hp.attacked cls;
                 pe hp.host_id_missed 0;
                 pe hp.host_detected 0;
               ])
          [
            (prob, E.Ops [ E.Set (hp.host_detected, E.Int 1) ]);
            (1.0 -. prob, miss_e hp.host_id_missed);
          ])
      [
        ("valid_ID_scp", 1, p.Params.p_detect_script);
        ("valid_ID_exp", 2, p.Params.p_detect_exploratory);
        ("valid_ID_inv", 3, p.Params.p_detect_innovative);
      ];
    (* False alarms of host/manager infiltration. *)
    if Params.host_false_alarm_rate p > 0.0 then
      B.timed_exp_rate_ir b
        ~name:(name "false_ID")
        ~rate:(E.RConst (Params.host_false_alarm_rate p))
        ~guard:
          (E.All
             [
               pe hp.alive 1;
               pe hp.attacked 0;
               pe hp.mgr_corrupt 0;
               pe hp.host_detected 0;
             ])
        (E.Ops [ E.Set (hp.host_detected, E.Int 1) ]);
    (* Response to a host-level detection requires a trustworthy local
       manager and domain manager group (Section 3.4). *)
    B.instantaneous_ir b
      ~name:(name "respond_host_detect")
      ~guard:
        (E.All
           [
             pe hp.host_detected 1;
             pe hp.alive 1;
             pe hp.mgr_corrupt 0;
             dom_group_ok_c sk d;
           ])
      (respond_e g);
    (* attack_mgmt: attacks against the manager on this host. *)
    B.timed_exp_rate_ir b
      ~name:(name "attack_mgmt")
      ~rate:
        (let base = Params.manager_attack_rate p in
         E.RIf
           ( pgt hp.attacked 0,
             E.RConst (base *. p.Params.corruption_multiplier),
             E.RConst (base *. 1.0) ))
      ~guard:
        (E.All
           [
             pe hp.alive 1;
             pe hp.mgr_running 1;
             pe hp.mgr_corrupt 0;
             pe hp.mgr_detected 0;
           ])
      (E.Ops
         [
           E.Set (hp.mgr_corrupt, E.Int 1);
           E.Inc (undetected, E.Int 1);
           E.Inc (dp.dom_mgrs_corrupt, E.Int 1);
         ]);
    (* valid_ID_mgr: IDS detection of manager infiltration. *)
    ids_cases b
      ~name:(name "valid_ID_mgr")
      ~guard:
        (E.All
           [
             pe hp.alive 1;
             pe hp.mgr_corrupt 1;
             pe hp.mgr_id_missed 0;
             pe hp.mgr_detected 0;
           ])
      [
        ( p.Params.p_detect_manager,
          E.Ops
            [
              E.Set (hp.mgr_detected, E.Int 1);
              E.Set (hp.mgr_corrupt, E.Int 0);
              E.Inc (undetected, E.Int (-1));
              E.Inc (dp.dom_mgrs_corrupt, E.Int (-1));
            ] );
        (1.0 -. p.Params.p_detect_manager, miss_e hp.mgr_id_missed);
      ];
    (* Response to a detected corrupt manager: the replication/management
       groups know, so the domain group or the global quorum suffices. *)
    B.instantaneous_ir b
      ~name:(name "respond_mgr_detect")
      ~guard:
        (E.All
           [
             pe hp.mgr_detected 1;
             pe hp.alive 1;
             E.Any [ dom_group_ok_c sk d; quorum_ok_c sk ];
           ])
      (respond_e g)
  done;

  let model = B.build b in
  {
    params = p;
    model;
    apps;
    domains;
    mgrs_running;
    undetected_corr_mgrs = undetected;
    spread_system = spread_sys;
    excl_domains;
    excl_hosts;
    excl_corrupt_hosts = excl_corrupt;
    excl_frac_sum = excl_frac;
    structure;
    composition = Compose.info root;
  }

(* --- rebinding a deserialized model --- *)

(* [build] is the one definition of the model: rebinding builds it again
   from the file's parameters and keeps those handles, once the loaded
   model is known to hold every built place under the same name, index
   and uid. The descriptors then address the loaded model's markings
   unchanged. *)
let rebind params ~model ~composition =
  let h = build params in
  let slot = function
    | P.P p -> (P.index p, P.uid p)
    | P.F p -> (P.findex p, P.fuid p)
  in
  let loaded = function
    | P.P p ->
        San.Model.find_place_opt model (P.name p)
        |> Option.map (fun q -> slot (P.P q))
    | P.F p ->
        San.Model.find_float_place_opt model (P.fname p)
        |> Option.map (fun q -> slot (P.F q))
  in
  let built =
    Array.to_list (Array.map (fun p -> P.P p) (San.Model.places h.model))
    @ Array.to_list
        (Array.map (fun p -> P.F p) (San.Model.float_places h.model))
    |> List.sort (fun a b -> compare (P.any_uid a) (P.any_uid b))
  in
  (match List.find_opt (fun p -> loaded p <> Some (slot p)) built with
  | None -> ()
  | Some p ->
      let index, uid = slot p in
      invalid_arg
        (Printf.sprintf "Itua.Model.rebind: place %S %s" (P.any_name p)
           (match loaded p with
           | None -> "is missing from the model"
           | Some (i, u) ->
               Printf.sprintf
                 "is at index %d, uid %d, but the parameters build it at \
                  index %d, uid %d"
                 i u index uid)));
  { h with model; composition; structure = Compose.render_info composition }

(* --- public predicates on handles --- *)

let improper h a m =
  let ap = h.apps.(a) in
  let corrupt = M.get m ap.rep_corr_undetected in
  corrupt > 0 && 3 * corrupt >= M.get m ap.replicas_running

let starved h a m = M.get m h.apps.(a).replicas_running = 0

let unavailable h a m = improper h a m || starved h a m

let host_of h g =
  h.domains.(g / h.params.Params.hosts_per_domain).hosts.(g mod h.params.Params.hosts_per_domain)

let num_hosts h = h.params.Params.num_domains * h.params.Params.hosts_per_domain
