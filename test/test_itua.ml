(* Tests for the ITUA model library: parameter validation, model
   construction, initial placement, exclusion semantics for both policies,
   measures, invariants under randomized configurations, and regression of
   the paper's qualitative shapes. *)

module M = San.Marking

let base_params = Itua.Params.default

let small_params =
  {
    base_params with
    Itua.Params.num_domains = 4;
    hosts_per_domain = 2;
    num_apps = 2;
    num_reps = 3;
  }

(* --- parameters --- *)

let test_params_default_valid () =
  match Itua.Params.validate base_params with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "default params rejected: %s" msg

let test_params_rejects () =
  let cases =
    [
      ("zero domains", { base_params with Itua.Params.num_domains = 0 });
      ("zero hosts", { base_params with Itua.Params.hosts_per_domain = 0 });
      ("zero apps", { base_params with Itua.Params.num_apps = 0 });
      ("zero reps", { base_params with Itua.Params.num_reps = 0 });
      ("zero attack", { base_params with Itua.Params.attack_rate_system = 0.0 });
      ( "bad class fractions",
        { base_params with Itua.Params.frac_script = 0.5 } );
      ( "bad attack shares",
        { base_params with Itua.Params.attack_share_host = 0.9 } );
      ( "multiplier < 1",
        { base_params with Itua.Params.corruption_multiplier = 0.5 } );
      ( "negative spread",
        { base_params with Itua.Params.spread_rate_domain = -1.0 } );
      ( "detection prob > 1",
        { base_params with Itua.Params.p_detect_script = 1.5 } );
      ("zero ids rate", { base_params with Itua.Params.ids_decision_rate = 0.0 });
      ("zero scale", { base_params with Itua.Params.rate_scale = 0.0 });
      ( "bad fa share",
        { base_params with Itua.Params.false_alarm_share_host = 2.0 } );
    ]
  in
  List.iter
    (fun (label, p) ->
      match Itua.Params.validate p with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted" label)
    cases

let test_params_derived_rates () =
  let p = base_params in
  (* 10 x 3 hosts, 4 apps x min(10,7) replicas = 28 placed. *)
  Alcotest.(check int) "hosts" 30 (Itua.Params.num_hosts p);
  Alcotest.(check int) "placed per app" 7 (Itua.Params.placed_replicas_per_app p);
  Alcotest.(check int) "total placed" 28 (Itua.Params.total_placed_replicas p);
  let close msg a b =
    if Float.abs (a -. b) > 1e-12 then Alcotest.failf "%s: %g vs %g" msg a b
  in
  close "host rate"
    (p.Itua.Params.rate_scale *. 3.0 *. 0.7 /. 30.0)
    (Itua.Params.host_attack_rate p);
  close "replica rate"
    (p.Itua.Params.rate_scale *. 3.0 *. 0.15 /. 28.0)
    (Itua.Params.replica_attack_rate p);
  close "manager rate"
    (p.Itua.Params.rate_scale *. 3.0 *. 0.15 /. 30.0)
    (Itua.Params.manager_attack_rate p);
  close "host fa"
    (p.Itua.Params.rate_scale *. 2.0 *. 0.5 /. 30.0)
    (Itua.Params.host_false_alarm_rate p);
  close "replica fa"
    (p.Itua.Params.rate_scale *. 2.0 *. 0.5 /. 28.0)
    (Itua.Params.replica_false_alarm_rate p);
  (* Per-entity exposure is a constant, independent of the topology
     (Section 4.2's normalization). *)
  let bigger = { p with Itua.Params.num_domains = 20; num_apps = 8 } in
  close "per-host rate independent of topology"
    (Itua.Params.host_attack_rate p)
    (Itua.Params.host_attack_rate bigger);
  close "per-replica rate independent of topology"
    (Itua.Params.replica_attack_rate p)
    (Itua.Params.replica_attack_rate bigger)

let test_fewer_domains_than_replicas () =
  let p = { base_params with Itua.Params.num_domains = 3 } in
  Alcotest.(check int) "placement capped by domains" 3
    (Itua.Params.placed_replicas_per_app p)

(* --- model construction --- *)

let test_model_sizes () =
  let h = Itua.Model.build small_params in
  Alcotest.(check int) "apps" 2 (Array.length h.Itua.Model.apps);
  Alcotest.(check int) "domains" 4 (Array.length h.Itua.Model.domains);
  Array.iter
    (fun (ap : Itua.Model.app_places) ->
      Alcotest.(check int) "slots" 3 (Array.length ap.Itua.Model.slots))
    h.Itua.Model.apps;
  Array.iter
    (fun (dp : Itua.Model.domain_places) ->
      Alcotest.(check int) "hosts" 2 (Array.length dp.Itua.Model.hosts);
      Alcotest.(check int) "has_app" 2 (Array.length dp.Itua.Model.has_app))
    h.Itua.Model.domains;
  (* Unique names guaranteed by the builder; just sanity check counts. *)
  let model = h.Itua.Model.model in
  Alcotest.(check bool) "has activities" true
    (Array.length (San.Model.activities model) > 40)

let test_structure_rendering () =
  let h = Itua.Model.build small_params in
  let s = h.Itua.Model.structure in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and hl = String.length s in
        let rec scan i =
          i + nl <= hl && (String.sub s i nl = needle || scan (i + 1))
        in
        scan 0
      in
      if not found then Alcotest.failf "structure missing %S in:\n%s" needle s)
    [ "itua"; "apps"; "app[0] (Rep, 2 copies)"; "replica[0] (Rep, 3 copies)";
      "security_domains"; "domain[0] (Rep, 4 copies)"; "host[0] (Rep, 2 copies)" ]

(* Every activity is declared through the composition node that owns it:
   the nodes' activity lists cover the model's activities exactly once,
   and each name is its node's path, a dot and one local component (the
   root's names carry no prefix). *)
let test_activities_named_by_node () =
  List.iter
    (fun policy ->
      let h =
        Itua.Model.build
          {
            base_params with
            Itua.Params.num_domains = 2;
            hosts_per_domain = 2;
            num_apps = 2;
            num_reps = 2;
            policy;
          }
      in
      let rec recorded (n : Compose.info) =
        List.iter
          (fun name ->
            let prefix = if n.path = "" then "" else n.path ^ "." in
            let pl = String.length prefix in
            if
              String.length name <= pl
              || String.sub name 0 pl <> prefix
              || String.contains_from name pl '.'
            then Alcotest.failf "%S is not a local name of node %S" name n.path)
          n.activities;
        n.activities @ List.concat_map recorded n.children
      in
      let names =
        Array.to_list
          (Array.map
             (fun (a : San.Activity.t) -> a.name)
             (San.Model.activities h.Itua.Model.model))
      in
      Alcotest.(check (list string)) "each activity recorded once"
        (List.sort compare names)
        (List.sort compare (recorded h.Itua.Model.composition)))
    [ Itua.Params.Domain_exclusion; Itua.Params.Host_exclusion ]

(* --- initial placement --- *)

let final_marking ?(seed = 5) ?(horizon = 1e-6) params =
  let h = Itua.Model.build params in
  let cfg = Sim.Executor.config ~horizon () in
  let outcome =
    Sim.Executor.run ~model:h.Itua.Model.model ~config:cfg
      ~stream:(Prng.Stream.create ~seed:(Int64.of_int seed))
      ~observer:Sim.Observer.nop ()
  in
  (h, outcome.Sim.Executor.final)

let test_initial_placement () =
  let h, m = final_marking small_params in
  Array.iter
    (fun (ap : Itua.Model.app_places) ->
      (* 3 replicas over 4 domains: all placed. *)
      Alcotest.(check int) "replicas running" 3
        (M.get m ap.Itua.Model.replicas_running);
      Alcotest.(check int) "nothing pending" 0 (M.get m ap.Itua.Model.to_start))
    h.Itua.Model.apps;
  (* One replica of an app per domain at most. *)
  Array.iter
    (fun (dp : Itua.Model.domain_places) ->
      Array.iter
        (fun p ->
          Alcotest.(check bool) "has_app is 0/1" true (M.get m p <= 1))
        dp.Itua.Model.has_app)
    h.Itua.Model.domains;
  Itua.Invariant.check_now h m

let test_initial_placement_capped () =
  (* 7 replicas but only 3 domains: 3 placed, 4 forever pending. *)
  let p =
    { base_params with Itua.Params.num_domains = 3; hosts_per_domain = 2 }
  in
  let h, m = final_marking p in
  Array.iter
    (fun (ap : Itua.Model.app_places) ->
      Alcotest.(check int) "replicas running" 3
        (M.get m ap.Itua.Model.replicas_running);
      Alcotest.(check int) "pending remainder" 4
        (M.get m ap.Itua.Model.to_start))
    h.Itua.Model.apps;
  Itua.Invariant.check_now h m

let test_initial_managers () =
  let h, m = final_marking small_params in
  Alcotest.(check int) "managers running" 8
    (M.get m h.Itua.Model.mgrs_running);
  Alcotest.(check int) "no corrupt managers" 0
    (M.get m h.Itua.Model.undetected_corr_mgrs)

(* --- exclusion policies --- *)

let count_alive h m =
  let alive = ref 0 in
  Array.iter
    (fun (dp : Itua.Model.domain_places) ->
      Array.iter
        (fun (hp : Itua.Model.host_places) ->
          if M.get m hp.Itua.Model.alive = 1 then incr alive)
        dp.Itua.Model.hosts)
    h.Itua.Model.domains;
  !alive

let test_domain_exclusion_kills_whole_domains () =
  let p = { small_params with Itua.Params.policy = Itua.Params.Domain_exclusion } in
  let h, m = final_marking ~horizon:20.0 ~seed:3 p in
  let excl = M.get m h.Itua.Model.excl_domains in
  Alcotest.(check bool) "something was excluded in 20h" true (excl > 0);
  (* Hosts die only with whole domains: alive = 2 * live domains. *)
  Alcotest.(check int) "host deaths match domain exclusions"
    ((4 - excl) * 2)
    (count_alive h m);
  Itua.Invariant.check_now h m

let test_host_exclusion_never_marks_domains () =
  let p = { small_params with Itua.Params.policy = Itua.Params.Host_exclusion } in
  let h, m = final_marking ~horizon:20.0 ~seed:3 p in
  Alcotest.(check int) "no domain-level exclusions" 0
    (M.get m h.Itua.Model.excl_domains);
  Array.iter
    (fun (dp : Itua.Model.domain_places) ->
      Alcotest.(check int) "excluded place stays 0" 0
        (M.get m dp.Itua.Model.excluded))
    h.Itua.Model.domains;
  Itua.Invariant.check_now h m

let test_false_alarms_exclude_clean_domains () =
  (* With negligible attacks, every exclusion stems from a false alarm, so
     excluded domains contain no corrupt hosts. *)
  let p =
    {
      small_params with
      Itua.Params.attack_rate_system = 1e-9;
      false_alarm_rate_system = 50.0;
    }
  in
  let h, m = final_marking ~horizon:10.0 ~seed:11 p in
  Alcotest.(check bool) "false alarms excluded domains" true
    (M.get m h.Itua.Model.excl_domains > 0);
  Alcotest.(check int) "no corrupt host was excluded" 0
    (M.get m h.Itua.Model.excl_corrupt_hosts);
  Alcotest.(check (float 1e-9)) "corrupt fraction sum is zero" 0.0
    (M.fget m h.Itua.Model.excl_frac_sum)

let test_no_attacks_no_byzantine () =
  let p =
    {
      small_params with
      Itua.Params.attack_rate_system = 1e-9;
      false_alarm_rate_system = 0.0;
    }
  in
  let h = Itua.Model.build p in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:10.0
      [
        Itua.Measures.unavailability h ~until:10.0;
        Itua.Measures.unreliability h ~until:10.0;
      ]
  in
  List.iter
    (fun (r : Sim.Runner.result) ->
      if r.ci.Stats.Ci.mean > 1e-6 then
        Alcotest.failf "%s nonzero without attacks" r.name)
    (Sim.Runner.run ~seed:13L ~reps:50 spec)

(* --- limit cases: exact zeros --- *)

(* Firings, over [reps] runs to [horizon], of the activities whose name
   ends in [suffix]. *)
let firings_of ~suffix ~reps ~horizon params =
  let h = Itua.Model.build params in
  let model = h.Itua.Model.model in
  let ends_with s =
    let n = String.length s and k = String.length suffix in
    n >= k && String.sub s (n - k) k = suffix
  in
  let count = ref 0 in
  let observer =
    {
      Sim.Observer.nop with
      on_fire =
        (fun _ (a : San.Activity.t) _ _ -> if ends_with a.name then incr count);
    }
  in
  let workspace = Sim.Executor.workspace model in
  let config = Sim.Executor.config ~horizon () in
  for seed = 1 to reps do
    ignore
      (Sim.Executor.run ~workspace ~model ~config
         ~stream:(Prng.Stream.create ~seed:(Int64.of_int seed))
         ~observer ()
        : Sim.Executor.outcome)
  done;
  !count

(* A zero host share leaves [attack_host] a rate of [0 + slope * spread],
   and spread only grows once a host has been attacked: the exponential
   rate is exactly 0 in every run, so it never fires. *)
let test_zero_host_share () =
  let p =
    {
      small_params with
      Itua.Params.attack_share_host = 0.0;
      attack_share_replica = 0.5;
      attack_share_manager = 0.5;
    }
  in
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Itua.Params.validate p);
  Alcotest.(check int) "attack_host never fires" 0
    (firings_of ~suffix:".attack_host" ~reps:50 ~horizon:10.0 p);
  Alcotest.(check bool) "manager attacks still fire" true
    (firings_of ~suffix:".attack_mgmt" ~reps:50 ~horizon:10.0 p > 0)

let test_zero_manager_share () =
  let p =
    {
      small_params with
      Itua.Params.attack_share_manager = 0.0;
      attack_share_host = 0.85;
    }
  in
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Itua.Params.validate p);
  Alcotest.(check int) "attack_mgmt never fires" 0
    (firings_of ~suffix:".attack_mgmt" ~reps:50 ~horizon:10.0 p);
  Alcotest.(check bool) "host attacks still fire" true
    (firings_of ~suffix:".attack_host" ~reps:50 ~horizon:10.0 p > 0)

(* The replica-only corner on the paper's 10x3x4x7 system: no host or
   manager attacks, no false alarms, no replica detection and no
   misbehaviour. Replicas then corrupt independently at
   [replica_attack_rate], and an application is improper once 3 of its 7
   replicas are, so its unreliability at [t] is P(Bin(7, 1 - e^(-lt)) >= 3). *)
let test_replica_only_binomial () =
  let p =
    {
      base_params with
      Itua.Params.attack_share_host = 0.0;
      attack_share_manager = 0.0;
      attack_share_replica = 1.0;
      false_alarm_rate_system = 0.0;
      p_detect_replica = 0.0;
      misbehave_rate = 0.0;
    }
  in
  let t = 10.0 in
  let q = 1.0 -. exp (-.Itua.Params.replica_attack_rate p *. t) in
  let binom k = [| 1.0; 7.0; 21.0 |].(k) in
  let below3 =
    List.fold_left
      (fun acc k ->
        acc +. (binom k *. (q ** float_of_int k) *. ((1.0 -. q) ** float_of_int (7 - k))))
      0.0 [ 0; 1; 2 ]
  in
  let exact = 1.0 -. below3 in
  let h = Itua.Model.build p in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:t
      [ Itua.Measures.unreliability h ~until:t ]
  in
  match Sim.Runner.run ~seed:20030622L ~reps:10_000 spec with
  | [ r ] ->
      let ci = r.Sim.Runner.ci in
      if Float.abs (ci.Stats.Ci.mean -. exact) > 2.0 *. ci.Stats.Ci.half_width
      then
        Alcotest.failf "unreliability %g +- %g, exact %g" ci.Stats.Ci.mean
          ci.Stats.Ci.half_width exact
  | rs -> Alcotest.failf "expected one measure, got %d" (List.length rs)

(* --- measures --- *)

(* The unavailability and unreliability rewards call [unavailable] for
   every application at every event, so it reads the handles in place
   and allocates nothing. Only native code has the allocation profile
   the bound assumes. *)
let test_unavailable_allocates_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let h = Itua.Model.build small_params in
    let m = San.Model.initial_marking h.Itua.Model.model in
    let calls = 10_000 and hits = ref 0 in
    let before = Gc.minor_words () in
    for i = 1 to calls do
      if Itua.Model.unavailable h (i mod small_params.Itua.Params.num_apps) m
      then incr hits
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int calls in
    ignore (Sys.opaque_identity !hits);
    if words > 0.01 then
      Alcotest.failf "Model.unavailable allocates %.2f words per call" words
  end

let test_measures_in_range () =
  let h = Itua.Model.build small_params in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:5.0
      (Itua.Measures.all h ~until:5.0)
  in
  let rs = Sim.Runner.run ~seed:17L ~reps:200 spec in
  List.iter
    (fun (r : Sim.Runner.result) ->
      let m = r.ci.Stats.Ci.mean in
      match r.name with
      | name when String.length name >= 8 && String.sub name 0 8 = "replicas" ->
          if m < 0.0 || m > 3.0 then
            Alcotest.failf "%s out of [0, num_reps]: %g" name m
      | name ->
          if r.n_defined > 0 && (m < -1e-9 || m > 1.0 +. 1e-9) then
            Alcotest.failf "%s out of [0,1]: %g" name m)
    rs

let test_unreliability_dominates_final_unavailability () =
  (* For any fixed window, time-average of the improper indicator is at
     most the probability the window ever saw an improper instant (both
     averaged over apps): unavailability <= unreliability + starvation
     effects.  Check the pure Byzantine part by disabling starvation:
     plenty of domains, host exclusion. *)
  let p =
    {
      base_params with
      Itua.Params.policy = Itua.Params.Host_exclusion;
      num_domains = 10;
      hosts_per_domain = 2;
      num_apps = 2;
    }
  in
  let h = Itua.Model.build p in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:5.0
      [
        Itua.Measures.unavailability h ~until:5.0;
        Itua.Measures.unreliability h ~until:5.0;
      ]
  in
  match Sim.Runner.run ~seed:19L ~reps:300 spec with
  | [ ua; ur ] ->
      Alcotest.(check bool)
        (Printf.sprintf "ua %.5f <= ur %.5f" ua.ci.Stats.Ci.mean
           ur.ci.Stats.Ci.mean)
        true
        (ua.ci.Stats.Ci.mean <= ur.ci.Stats.Ci.mean +. 1e-9)
  | _ -> Alcotest.fail "wrong result arity"

let test_fraction_corrupt_undefined_without_exclusions () =
  let p =
    {
      small_params with
      Itua.Params.attack_rate_system = 1e-9;
      false_alarm_rate_system = 0.0;
    }
  in
  let h = Itua.Model.build p in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:2.0
      [ Itua.Measures.fraction_corrupt_in_excluded h ]
  in
  let r = List.hd (Sim.Runner.run ~seed:23L ~reps:20 spec) in
  Alcotest.(check int) "undefined in every replication" 0 r.Sim.Runner.n_defined

let test_determinism () =
  let h = Itua.Model.build small_params in
  let run () =
    let spec =
      Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:5.0
        (Itua.Measures.all h ~until:5.0)
    in
    List.map
      (fun (r : Sim.Runner.result) -> r.ci.Stats.Ci.mean)
      (Sim.Runner.run ~seed:99L ~reps:60 spec)
  in
  Alcotest.(check (list (float 0.0))) "same seed, same estimates" (run ()) (run ())

(* --- ablation switches --- *)

let ur10 p seed =
  let h = Itua.Model.build p in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:10.0
      [ Itua.Measures.unreliability h ~until:10.0;
        Itua.Measures.unavailability h ~until:10.0 ]
  in
  match Sim.Runner.run ~seed ~reps:400 spec with
  | [ ur; ua ] -> (ur.ci.Stats.Ci.mean, ua.ci.Stats.Ci.mean)
  | _ -> Alcotest.fail "arity"

let fig5_hot =
  {
    base_params with
    Itua.Params.policy = Itua.Params.Host_exclusion;
    corruption_multiplier = 5.0;
    rate_scale = 1.0;
    spread_rate_domain = 8.0;
    spread_effect_domain = 8.0;
  }

let test_ablation_retrying_ids_detects_more () =
  (* With retrying (non-sticky) misses every intrusion is eventually
     detected, so fewer corruptions linger and unreliability falls. *)
  let sticky, _ = ur10 fig5_hot 31L in
  let retrying, _ =
    ur10 { fig5_hot with Itua.Params.ids_misses_sticky = false } 31L
  in
  Alcotest.(check bool)
    (Printf.sprintf "retrying %.4f < sticky %.4f" retrying sticky)
    true (retrying < sticky)

let test_ablation_spread_persistence_matters () =
  (* Quenching the spread on host exclusion must reduce the damage at a
     high spread rate. *)
  let persist, _ = ur10 fig5_hot 32L in
  let quenched, _ =
    ur10 { fig5_hot with Itua.Params.spread_outlives_host = false } 32L
  in
  Alcotest.(check bool)
    (Printf.sprintf "quenched %.4f < persistent %.4f" quenched persist)
    true (quenched < persist)

let test_ablation_ungated_recovery_not_worse () =
  (* Removing the quorum gate can only make recovery easier; measured
     unavailability must not increase beyond noise. *)
  let p =
    { base_params with
      Itua.Params.rate_scale = 1.0; corruption_multiplier = 5.0 }
  in
  let _, gated = ur10 p 33L in
  let _, ungated =
    ur10 { p with Itua.Params.quorum_gates_recovery = false } 33L
  in
  Alcotest.(check bool)
    (Printf.sprintf "ungated %.4f <= gated %.4f (+noise)" ungated gated)
    true
    (ungated <= gated +. 0.02)

let test_itua_model_passes_check () =
  (* The model checker reports no error-level diagnostics for either
     policy: declared read sets cover every enabled/dist/weight read, no
     effect underflows a place, and instantaneous firings stabilize.
     (Warnings are expected — e.g. effect-only reads of shared state —
     and are not part of this contract.) *)
  List.iter
    (fun policy ->
      let h =
        Itua.Model.build
          { small_params with Itua.Params.policy; rate_scale = 2.0 }
      in
      let r =
        Analysis.Check.run ~runs:2 ~composition:h.Itua.Model.composition
          h.Itua.Model.model
      in
      match Analysis.Check.errors r with
      | [] -> ()
      | es ->
          Alcotest.failf "check errors: %s"
            (String.concat "; "
               (List.map
                  (Format.asprintf "%a" Analysis.Diagnostic.pp)
                  es)))
    [ Itua.Params.Domain_exclusion; Itua.Params.Host_exclusion ]

(* --- invariants under randomized configurations --- *)

let prop_invariants_hold =
  QCheck2.Test.make ~name:"ITUA invariants hold along random runs" ~count:60
    QCheck2.Gen.(
      tup6 (int_range 1 5) (int_range 1 3) (int_range 1 3) (int_range 1 5)
        bool (int_range 0 1_000_000))
    (fun (nd, nh, na, nr, host_policy, seed) ->
      let p =
        {
          base_params with
          Itua.Params.num_domains = nd;
          hosts_per_domain = nh;
          num_apps = na;
          num_reps = nr;
          policy =
            (if host_policy then Itua.Params.Host_exclusion
             else Itua.Params.Domain_exclusion);
          (* Hot rates so short runs still exercise the machinery. *)
          rate_scale = 2.0;
          corruption_multiplier = 5.0;
          spread_rate_domain = 5.0;
          spread_effect_domain = 5.0;
        }
      in
      let h = Itua.Model.build p in
      let spec =
        Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:8.0
          ~extra_observers:[ Itua.Invariant.observer h ]
          [ Itua.Measures.unavailability h ~until:8.0 ]
      in
      match Sim.Runner.run_one spec (Prng.Stream.create ~seed:(Int64.of_int seed)) with
      | (_ : float array) -> true
      | exception Itua.Invariant.Violation msg ->
          QCheck2.Test.fail_reportf "invariant violated: %s" msg)

(* --- non-exponential IDS latency (the paper's non-Markovian regime) --- *)

let test_erlang_ids_runs_with_invariants () =
  let p = { small_params with Itua.Params.ids_latency_stages = 4 } in
  let h = Itua.Model.build p in
  Alcotest.(check bool) "model is not all-exponential" false
    (San.Model.all_exponential h.Itua.Model.model);
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:10.0
      ~extra_observers:[ Itua.Invariant.observer h ]
      [ Itua.Measures.unavailability h ~until:10.0 ]
  in
  let r = List.hd (Sim.Runner.run ~seed:41L ~reps:100 spec) in
  Alcotest.(check bool) "measure in range" true
    (0.0 <= r.ci.Stats.Ci.mean && r.ci.Stats.Ci.mean <= 1.0)

let test_erlang_ids_rejected_by_ctmc () =
  let p =
    {
      base_params with
      Itua.Params.num_domains = 1;
      hosts_per_domain = 1;
      num_apps = 1;
      num_reps = 1;
      ids_latency_stages = 3;
    }
  in
  let h = Itua.Model.build p in
  Alcotest.(check bool) "non-Markovian model rejected" true
    (match Ctmc.Explore.explore h.Itua.Model.model with
    | (_ : Ctmc.Explore.t) -> false
    | exception Ctmc.Explore.Non_markovian _ -> true)

let test_erlang_ids_less_variable_detection () =
  (* Same mean IDS latency but lower variance: early detections become
     rarer, so the fraction of corrupt time in the first moments shifts;
     sanity-check the knob changes behaviour at all while keeping the
     measure in range. *)
  let measure stages =
    let p =
      { small_params with
        Itua.Params.ids_latency_stages = stages; rate_scale = 2.0 }
    in
    let h = Itua.Model.build p in
    let spec =
      Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:10.0
        [ Itua.Measures.fraction_domains_excluded h ~at:10.0 ]
    in
    (List.hd (Sim.Runner.run ~seed:43L ~reps:400 spec)).ci.Stats.Ci.mean
  in
  let exp1 = measure 1 and erl8 = measure 8 in
  Alcotest.(check bool)
    (Printf.sprintf "both in range (%.3f, %.3f)" exp1 erl8)
    true
    (0.0 < exp1 && exp1 < 1.0 && 0.0 < erl8 && erl8 < 1.0)

(* --- exact CTMC cross-validation of a tiny configuration --- *)

let test_tiny_config_matches_ctmc () =
  (* With one domain, one host, one application and one replica, the
     placement choices are forced, no effect consumes randomness, and the
     full ITUA model is explorable analytically.  The simulator must agree
     with the exact transient solution. *)
  let p =
    {
      base_params with
      Itua.Params.num_domains = 1;
      hosts_per_domain = 1;
      num_apps = 1;
      num_reps = 1;
      rate_scale = 1.0;
    }
  in
  let h = Itua.Model.build p in
  let c = Ctmc.Explore.explore h.Itua.Model.model in
  Alcotest.(check bool) "nontrivial state space" true
    (Ctmc.Explore.n_states c > 50);
  let improper m = Itua.Model.improper h 0 m in
  let unavailable m = Itua.Model.unavailable h 0 m in
  let exact_ur = Ctmc.Measure.ever c ~until:5.0 improper in
  let exact_ua =
    Ctmc.Measure.interval_average c ~until:5.0 (fun m ->
        if unavailable m then 1.0 else 0.0)
  in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:5.0
      [
        Itua.Measures.unreliability h ~until:5.0;
        Itua.Measures.unavailability h ~until:5.0;
      ]
  in
  match Sim.Runner.run ~seed:5L ~reps:20_000 spec with
  | [ ur; ua ] ->
      if not (Stats.Ci.contains ur.ci exact_ur) then
        Alcotest.failf "unreliability: CI %s misses exact %.5f"
          (Format.asprintf "%a" Stats.Ci.pp ur.ci)
          exact_ur;
      if not (Stats.Ci.contains ua.ci exact_ua) then
        Alcotest.failf "unavailability: CI %s misses exact %.5f"
          (Format.asprintf "%a" Stats.Ci.pp ua.ci)
          exact_ua
  | _ -> Alcotest.fail "arity"

(* --- rare-event splitting against the exact CTMC --- *)

let test_splitting_matches_ctmc () =
  (* The same minimal configuration as the CTMC cross-validation above:
     the splitting engine with the ITUA importance function must
     reproduce the exact unreliability tail. *)
  let p =
    {
      base_params with
      Itua.Params.num_domains = 1;
      hosts_per_domain = 1;
      num_apps = 1;
      num_reps = 1;
      rate_scale = 1.0;
    }
  in
  let h = Itua.Model.build p in
  let c = Ctmc.Explore.explore h.Itua.Model.model in
  let exact =
    Ctmc.Measure.ever c ~until:5.0 (fun m -> Itua.Model.improper h 0 m)
  in
  let levels = Itua.Rare.default_levels in
  let r =
    Sim.Splitting.run ~model:h.Itua.Model.model
      ~config:(Sim.Executor.config ~horizon:5.0 ())
      ~importance:(Itua.Rare.unreliability ~app:0 h ~levels)
      ~levels ~clones:2 ~initial:4000 ~seed:20030622L ()
  in
  let est = r.Sim.Splitting.estimate in
  let sigma = sqrt (Stats.Splitting.variance est) in
  let gap = Float.abs (est.Stats.Splitting.probability -. exact) in
  if gap > 3.0 *. sigma then
    Alcotest.failf "splitting %.5g vs exact %.5g: gap %.3g > 3σ = %.3g"
      est.Stats.Splitting.probability exact gap (3.0 *. sigma);
  if not (Stats.Ci.contains est.Stats.Splitting.ci exact) then
    Alcotest.failf "reported CI %s misses exact %.5g"
      (Format.asprintf "%a" Stats.Ci.pp est.Stats.Splitting.ci)
      exact

let test_rare_point_runs () =
  (* Study wiring smoke: a small splitting run on a non-degenerate
     configuration returns a sane estimate and stage profile. *)
  let params =
    {
      base_params with
      Itua.Params.num_domains = 2;
      hosts_per_domain = 1;
      num_apps = 1;
      num_reps = 2;
    }
  in
  let config = { Itua.Study.quick_config with reps = 400 } in
  let r =
    Itua.Study.rare_point ~config ~measure:Itua.Study.Unreliability ~params
      ~until:5.0 ()
  in
  let est = r.Sim.Splitting.estimate in
  Alcotest.(check bool) "probability in (0, 1)" true
    (est.Stats.Splitting.probability >= 0.0
    && est.Stats.Splitting.probability < 1.0);
  Alcotest.(check bool) "ran all levels or went dry" true
    (Array.length est.Stats.Splitting.stages <= Itua.Rare.default_levels);
  Alcotest.(check bool) "counted work" true (r.Sim.Splitting.total_events > 0)

(* --- trace observer on an ITUA model --- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  nl = 0 || scan 0

let tiny_params =
  {
    base_params with
    Itua.Params.num_domains = 1;
    hosts_per_domain = 1;
    num_apps = 1;
    num_reps = 1;
  }

let test_trace_on_itua () =
  let h = Itua.Model.build tiny_params in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let observer =
    Sim.Trace.observer ~show_marking:true ~model:h.Itua.Model.model ppf
  in
  (* The tiny config averages only ~0.1 firings/hour; a long horizon makes
     at least one firing (and its marking dump) all but certain. *)
  let cfg = Sim.Executor.config ~horizon:200.0 () in
  let (_ : Sim.Executor.outcome) =
    Sim.Executor.run ~model:h.Itua.Model.model ~config:cfg
      ~stream:(Prng.Stream.create ~seed:42L)
      ~observer ()
  in
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let lines = String.split_on_char '\n' out in
  let starts_with p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  Alcotest.(check bool) "timestamped init line first" true
    (match lines with
    | l :: _ -> starts_with "t=" l && contains ~needle:"init" l
    | [] -> false);
  Alcotest.(check bool) "end line present" true
    (List.exists
       (fun l -> starts_with "t=" l && contains ~needle:"end" l)
       lines);
  Alcotest.(check bool) "firing lines present" true
    (List.exists
       (fun l -> starts_with "t=" l && contains ~needle:"fire " l)
       lines);
  (* Marking dumps list composed ITUA place names, indented. *)
  let dump_lines = List.filter (starts_with "    ") lines in
  Alcotest.(check bool) "marking dumped" true (dump_lines <> []);
  Alcotest.(check bool) "dump shows place = value" true
    (List.exists
       (fun l ->
         contains ~needle:" = " l
         && contains ~needle:"security_domains.domain[0].host[0]." l)
       dump_lines)

(* --- failure forensics --- *)

let event =
  Alcotest.testable Itua.Forensics.pp_event (fun a b -> a = b)

let test_forensics_synthetic_chain () =
  let change place value = { Sim.Trajectory.place; value } in
  let step time activity changes =
    { Sim.Trajectory.time; activity; case = 0; changes }
  in
  let t =
    {
      Sim.Trajectory.rep = 7;
      matched = true;
      events = 6;
      horizon = 10.0;
      init =
        [
          change "apps.app[0].replicas_running" 3.0;
          change "security_domains.domain[0].host[0].alive" 1.0;
        ];
      steps =
        [
          step 1.5 "attack"
            [ change "security_domains.domain[0].host[0].attacked" 2.0 ];
          step 2.0 "ids"
            [ change "security_domains.domain[0].host[0].host_detected" 1.0 ];
          step 3.0 "exclude"
            [
              change "security_domains.domain[0].excluded" 1.0;
              change "excluded_hosts" 2.0;
              change "excluded_corrupt_hosts" 1.0;
              change "security_domains.domain[0].host[0].alive" 0.0;
            ];
          step 4.0 "apps.app[1].recovery"
            [ change "apps.app[1].replica[2].corrupt" 1.0 ];
          step 5.0 "vote"
            [
              change "apps.app[0].rep_corr_undetected" 1.0;
              change "apps.app[0].rep_grp_failure" 1.0;
            ];
          step 6.0 "starve" [ change "apps.app[0].replicas_running" 0.0 ];
        ];
    }
  in
  let c = Itua.Forensics.chain_of_trajectory t in
  Alcotest.(check int) "rep" 7 c.Itua.Forensics.rep;
  Alcotest.(check bool) "matched" true c.Itua.Forensics.matched;
  Alcotest.(check (list event)) "labeled attack chain"
    [
      Itua.Forensics.Host_intrusion
        { domain = 0; host = 0; klass = "exploratory"; time = 1.5 };
      Itua.Forensics.Host_detected { domain = 0; host = 0; time = 2.0 };
      (* The exclusion tallies come from the same-step deltas of the
         measure accumulators. *)
      Itua.Forensics.Domain_excluded
        { domain = 0; corrupt = 1; hosts = 2; time = 3.0 };
      Itua.Forensics.Host_excluded { domain = 0; host = 0; time = 3.0 };
      Itua.Forensics.Recovery { app = 1; time = 4.0 };
      Itua.Forensics.Replica_corrupted { app = 1; replica = 2; time = 4.0 };
      Itua.Forensics.App_improper
        { app = 0; corrupt = 1; running = 3; time = 5.0 };
      Itua.Forensics.App_starved { app = 0; time = 6.0 };
    ]
    c.Itua.Forensics.events;
  Alcotest.(check bool) "ttf is the first failure event" true
    (c.Itua.Forensics.time_to_failure = Some 5.0);
  let s = Itua.Forensics.summarize [ c ] in
  Alcotest.(check int) "one chain" 1 s.Itua.Forensics.chains;
  Alcotest.(check int) "one failed" 1 s.Itua.Forensics.failed;
  Alcotest.(check (float 0.0)) "ttf mean" 5.0 s.Itua.Forensics.ttf_mean;
  Alcotest.(check (float 0.0)) "ttf min" 5.0 s.Itua.Forensics.ttf_min;
  Alcotest.(check (float 0.0)) "ttf max" 5.0 s.Itua.Forensics.ttf_max

let test_forensics_summary_empty () =
  let s = Itua.Forensics.summarize [] in
  Alcotest.(check int) "no chains" 0 s.Itua.Forensics.chains;
  Alcotest.(check bool) "nan mean" true (Float.is_nan s.Itua.Forensics.ttf_mean)

(* End-to-end: record failing small-config runs through the runner and
   compress every retained trajectory into a chain. *)
let test_forensics_end_to_end () =
  let h = Itua.Model.build small_params in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:10.0
      [ Itua.Measures.unreliability h ~until:10.0 ]
  in
  let sink =
    Sim.Trajectory.sink ~k:4
      ~predicate:(Itua.Forensics.failed_now h)
      ~model:h.Itua.Model.model ()
  in
  let rs = Sim.Runner.run ~seed:23L ~reps:300 ~record:sink spec in
  let unrel = (List.hd rs).Sim.Runner.ci.Stats.Ci.mean in
  Alcotest.(check int) "all runs offered" 300 (Sim.Trajectory.runs sink);
  (* Unreliability averages the per-app indicators, so the fraction of
     runs where ANY app failed (the capture predicate) bounds it above. *)
  Alcotest.(check bool) "matched fraction >= unreliability" true
    (float_of_int (Sim.Trajectory.matched_runs sink) /. 300.0
    >= unrel -. 1e-9);
  let matching = Sim.Trajectory.matching sink in
  Alcotest.(check bool) "retained some failures" true (matching <> []);
  Alcotest.(check bool) "bounded by k" true (List.length matching <= 4);
  List.iter
    (fun t ->
      let c = Itua.Forensics.chain_of_trajectory t in
      Alcotest.(check bool) "failing chain has events" true
        (c.Itua.Forensics.events <> []);
      (* A run the predicate matched must show a replication-group
         failure in its chain. *)
      Alcotest.(check bool) "chain contains an improper-group event" true
        (List.exists
           (function
             | Itua.Forensics.App_improper _ -> true
             | _ -> false)
           c.Itua.Forensics.events))
    matching

(* Forensics recognizes a recovery under the name the model declares it
   with: each app's node holds exactly its recovery activity, and every
   recorded firing of it becomes one [Recovery] event. *)
let test_forensics_recovery_names () =
  let h = Itua.Model.build small_params in
  let recovery =
    let apps =
      List.find
        (fun (n : Compose.info) -> n.label = "apps")
        h.Itua.Model.composition.children
    in
    List.mapi
      (fun a (n : Compose.info) ->
        match n.activities with
        | [ name ] -> (name, a)
        | l -> Alcotest.failf "app %d declares %d activities" a (List.length l))
      apps.children
  in
  let sink =
    Sim.Trajectory.sink ~k:4
      ~predicate:(fun m ->
        Array.exists
          (fun (ap : Itua.Model.app_places) -> M.get m ap.need_recovery > 0)
          h.Itua.Model.apps)
      ~model:h.Itua.Model.model ()
  in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:10.0
      [ Itua.Measures.unreliability h ~until:10.0 ]
  in
  ignore (Sim.Runner.run ~seed:23L ~reps:100 ~record:sink spec);
  let fired, events =
    List.split
      (List.map
         (fun (t : Sim.Trajectory.t) ->
           ( List.filter_map
               (fun (s : Sim.Trajectory.step) ->
                 Option.map
                   (fun a -> (a, s.time))
                   (List.assoc_opt s.activity recovery))
               t.steps,
             List.filter_map
               (function
                 | Itua.Forensics.Recovery { app; time } -> Some (app, time)
                 | _ -> None)
               (Itua.Forensics.chain_of_trajectory t).Itua.Forensics.events ))
         (Sim.Trajectory.matching sink))
  in
  Alcotest.(check bool) "some recorded run fires a recovery" true
    (List.exists (( <> ) []) fired);
  Alcotest.(check (list (list (pair int (float 0.0)))))
    "one Recovery event per firing" fired events

let test_failed_now_initially_false () =
  let h = Itua.Model.build small_params in
  let m = San.Model.initial_marking h.Itua.Model.model in
  Alcotest.(check bool) "healthy at t=0" false (Itua.Forensics.failed_now h m)

(* --- qualitative shapes from the paper (regression) --- *)

let panels =
  lazy (Itua.Study.all ~config:Itua.Study.quick_config ())

let test_shapes () =
  let checks = Itua.Study.shape_checks (Lazy.force panels) in
  Alcotest.(check bool) "produced checks" true (List.length checks >= 8);
  List.iter
    (fun (label, ok) -> if not ok then Alcotest.failf "shape check failed: %s" label)
    checks

(* --- side studies (itua_sim study sens|ablate|traj|rare) --- *)

(* The data fields of a panel's CSV rendering: x, then mean and
   half-width per series. An undefined cell renders as two empty
   fields. *)
let csv_fields table =
  let csv = Format.asprintf "%a" Report.pp_csv table in
  match String.split_on_char '\n' csv with
  | _header :: rows ->
      List.concat_map (String.split_on_char ',')
        (List.filter (( <> ) "") rows)
  | [] -> []

let test_side_studies () =
  let config = { Itua.Study.quick_config with reps = 20 } in
  List.iter
    (fun (ids, panels) ->
      Alcotest.(check (list string)) "panel ids" ids (List.map fst panels);
      List.iter
        (fun (id, table) ->
          Alcotest.(check bool) (id ^ " has rows") true
            (Report.x_values table <> []);
          List.iter
            (fun f ->
              match float_of_string_opt f with
              | Some v when Float.is_finite v -> ()
              | _ -> Alcotest.failf "%s: cell %S undefined or not finite" id f)
            (csv_fields table))
        panels)
    [
      ( [ "sens_detect"; "sens_recovery"; "sens_misbehave"; "sens_multiplier" ],
        Itua.Study.sensitivity ~config () );
      ([ "ablation" ], Itua.Study.ablation ~config ());
      ([ "traj_domain"; "traj_host" ], Itua.Study.trajectory ~config ());
      ([ "fig4b_rare" ], Itua.Study.fig4b_rare ~config ());
    ]

let () =
  let props = List.map QCheck_alcotest.to_alcotest [ prop_invariants_hold ] in
  Alcotest.run "itua"
    [
      ( "params",
        [
          Alcotest.test_case "default valid" `Quick test_params_default_valid;
          Alcotest.test_case "rejections" `Quick test_params_rejects;
          Alcotest.test_case "derived rates" `Quick test_params_derived_rates;
          Alcotest.test_case "domain-capped placement" `Quick
            test_fewer_domains_than_replicas;
        ] );
      ( "model",
        [
          Alcotest.test_case "sizes" `Quick test_model_sizes;
          Alcotest.test_case "structure rendering" `Quick
            test_structure_rendering;
          Alcotest.test_case "activities named by node" `Quick
            test_activities_named_by_node;
        ] );
      ( "placement",
        [
          Alcotest.test_case "initial placement" `Quick test_initial_placement;
          Alcotest.test_case "capped by domains" `Quick
            test_initial_placement_capped;
          Alcotest.test_case "managers start" `Quick test_initial_managers;
        ] );
      ( "exclusion",
        [
          Alcotest.test_case "domain exclusion is whole-domain" `Quick
            test_domain_exclusion_kills_whole_domains;
          Alcotest.test_case "host exclusion spares domains" `Quick
            test_host_exclusion_never_marks_domains;
          Alcotest.test_case "false alarms hit clean domains" `Quick
            test_false_alarms_exclude_clean_domains;
          Alcotest.test_case "no attacks, no failures" `Quick
            test_no_attacks_no_byzantine;
        ] );
      ( "limit cases",
        [
          Alcotest.test_case "zero host attack share" `Quick
            test_zero_host_share;
          Alcotest.test_case "zero manager attack share" `Quick
            test_zero_manager_share;
          Alcotest.test_case "replica-only binomial" `Quick
            test_replica_only_binomial;
        ] );
      ( "measures",
        [
          Alcotest.test_case "ranges" `Quick test_measures_in_range;
          Alcotest.test_case "unavailability below unreliability" `Slow
            test_unreliability_dominates_final_unavailability;
          Alcotest.test_case "conditional measure undefined" `Quick
            test_fraction_corrupt_undefined_without_exclusions;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "unavailable allocates nothing" `Quick
            test_unavailable_allocates_nothing;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "retrying IDS detects more" `Slow
            test_ablation_retrying_ids_detects_more;
          Alcotest.test_case "spread persistence matters" `Slow
            test_ablation_spread_persistence_matters;
          Alcotest.test_case "ungated recovery not worse" `Slow
            test_ablation_ungated_recovery_not_worse;
          Alcotest.test_case "model passes check" `Slow
            test_itua_model_passes_check;
        ] );
      ("properties", props);
      ( "non-exponential",
        [
          Alcotest.test_case "erlang IDS with invariants" `Slow
            test_erlang_ids_runs_with_invariants;
          Alcotest.test_case "rejected by CTMC path" `Quick
            test_erlang_ids_rejected_by_ctmc;
          Alcotest.test_case "latency shape knob" `Slow
            test_erlang_ids_less_variable_detection;
        ] );
      ( "ctmc-cross-validation",
        [
          Alcotest.test_case "tiny config exact" `Slow
            test_tiny_config_matches_ctmc;
        ] );
      ( "rare-events",
        [
          Alcotest.test_case "splitting matches exact ctmc" `Slow
            test_splitting_matches_ctmc;
          Alcotest.test_case "study rare_point" `Slow test_rare_point_runs;
        ] );
      ( "trace",
        [ Alcotest.test_case "show marking on ITUA" `Quick test_trace_on_itua ] );
      ( "forensics",
        [
          Alcotest.test_case "synthetic chain" `Quick
            test_forensics_synthetic_chain;
          Alcotest.test_case "empty summary" `Quick test_forensics_summary_empty;
          Alcotest.test_case "end to end" `Slow test_forensics_end_to_end;
          Alcotest.test_case "recovery by model name" `Quick
            test_forensics_recovery_names;
          Alcotest.test_case "healthy at start" `Quick
            test_failed_now_initially_false;
        ] );
      ( "paper-shapes",
        [ Alcotest.test_case "figure shapes" `Slow test_shapes ] );
      ( "side-studies",
        [
          Alcotest.test_case "panels defined and finite" `Slow
            test_side_studies;
        ] );
    ]
