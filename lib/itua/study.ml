type config = { reps : int; seed : int64; domains : int }

let default_config =
  { reps = 2000; seed = 20030622L; domains = Sim.Runner.default_domains () }

let quick_config = { default_config with reps = 300 }

let ci_cell (r : Sim.Runner.result) =
  if r.Sim.Runner.n_defined = 0 then None else Some r.Sim.Runner.ci

(* Run one parameter point and return its measures keyed by reward name. *)
let run_point cfg params rewards =
  let h = Model.build params in
  let horizon =
    List.fold_left
      (fun acc spec -> Float.max acc (Sim.Reward.latest_time spec))
      1.0 (rewards h)
  in
  let spec = Sim.Runner.spec ~model:h.Model.model ~horizon (rewards h) in
  Sim.Runner.run ~domains:cfg.domains ~seed:cfg.seed ~reps:cfg.reps spec

(* --- Study 4.1 --- *)

let fig3_distributions = [ (12, 1); (6, 2); (4, 3); (3, 4); (2, 6); (1, 12) ]
let fig3_app_counts = [ 2; 4; 6; 8 ]

let fig3 ?(config = default_config) () =
  let series = List.map (Printf.sprintf "%d applications") fig3_app_counts in
  let table title =
    Report.create ~title ~x_label:"hosts/domain" ~series
  in
  let ta = table "Fig 3(a): unavailability for the first 5 hours" in
  let tb = table "Fig 3(b): unreliability for the first 5 hours" in
  let tc = table "Fig 3(c): fraction of corrupt hosts in an excluded domain" in
  let td = table "Fig 3(d): fraction of domains excluded at t=5" in
  List.iter
    (fun (nd, nh) ->
      let results =
        List.map
          (fun na ->
            let params =
              { Params.default with
                Params.num_domains = nd;
                hosts_per_domain = nh;
                num_apps = na;
              }
            in
            run_point config params (fun h ->
                [
                  Measures.unavailability h ~until:5.0;
                  Measures.unreliability h ~until:5.0;
                  Measures.fraction_corrupt_in_excluded h;
                  Measures.fraction_domains_excluded h ~at:5.0;
                ]))
          fig3_app_counts
      in
      let col i = List.map (fun rs -> ci_cell (List.nth rs i)) results in
      Report.add_row ta ~x:(float_of_int nh) (col 0);
      Report.add_row tb ~x:(float_of_int nh) (col 1);
      Report.add_row tc ~x:(float_of_int nh) (col 2);
      Report.add_row td ~x:(float_of_int nh) (col 3))
    fig3_distributions;
  [ ("fig3a", ta); ("fig3b", tb); ("fig3c", tc); ("fig3d", td) ]

(* --- Study 4.2 --- *)

let fig4 ?(config = default_config) () =
  let ta =
    Report.create ~title:"Fig 4(a): unavailability (10 domains)"
      ~x_label:"hosts/domain" ~series:[ "[0,5]"; "[0,10]" ]
  in
  let tb =
    Report.create ~title:"Fig 4(b): unreliability (10 domains)"
      ~x_label:"hosts/domain" ~series:[ "[0,5]"; "[0,10]" ]
  in
  let tc =
    Report.create
      ~title:"Fig 4(c): fraction of corrupt hosts in excluded domains (long run)"
      ~x_label:"hosts/domain" ~series:[ "long run" ]
  in
  let td =
    Report.create ~title:"Fig 4(d): fraction of domains excluded"
      ~x_label:"hosts/domain" ~series:[ "at t=5"; "at t=10" ]
  in
  List.iter
    (fun nh ->
      let params =
        { Params.default with
          Params.num_domains = 10;
          hosts_per_domain = nh;
          num_apps = 4;
        }
      in
      let rs =
        run_point config params (fun h ->
            [
              Measures.unavailability h ~until:5.0;
              Measures.unavailability h ~until:10.0;
              Measures.unreliability h ~until:5.0;
              Measures.unreliability h ~until:10.0;
              Measures.fraction_corrupt_in_excluded h;
              Measures.fraction_domains_excluded h ~at:5.0;
              Measures.fraction_domains_excluded h ~at:10.0;
            ])
      in
      let cell i = ci_cell (List.nth rs i) in
      let x = float_of_int nh in
      Report.add_row ta ~x [ cell 0; cell 1 ];
      Report.add_row tb ~x [ cell 2; cell 3 ];
      Report.add_row tc ~x [ cell 4 ];
      Report.add_row td ~x [ cell 5; cell 6 ])
    [ 1; 2; 3; 4 ];
  [ ("fig4a", ta); ("fig4b", tb); ("fig4c", tc); ("fig4d", td) ]

(* --- Study 4.3 --- *)

let fig5_spreads = [ 0.0; 2.0; 4.0; 6.0; 8.0; 10.0 ]

let fig5_params ~policy ~spread =
  {
    Params.default with
    Params.num_domains = 10;
    hosts_per_domain = 3;
    num_apps = 4;
    policy;
    corruption_multiplier = 5.0;
    spread_rate_domain = spread;
    spread_effect_domain = spread;
    (* Study 3 runs at the literal reading of the cumulative rates; see
       the interface documentation and EXPERIMENTS.md. *)
    rate_scale = 1.0;
  }

let fig5 ?(config = default_config) () =
  let series = [ "Host exclusion"; "Domain exclusion" ] in
  let table title = Report.create ~title ~x_label:"spread rate" ~series in
  let ta = table "Fig 5(a): unavailability for the first 5 hours" in
  let tb = table "Fig 5(b): unavailability for the first 10 hours" in
  let tc = table "Fig 5(c): unreliability for the first 5 hours" in
  let td = table "Fig 5(d): unreliability for the first 10 hours" in
  List.iter
    (fun spread ->
      let results =
        List.map
          (fun policy ->
            run_point config (fig5_params ~policy ~spread) (fun h ->
                [
                  Measures.unavailability h ~until:5.0;
                  Measures.unavailability h ~until:10.0;
                  Measures.unreliability h ~until:5.0;
                  Measures.unreliability h ~until:10.0;
                ]))
          [ Params.Host_exclusion; Params.Domain_exclusion ]
      in
      let col i = List.map (fun rs -> ci_cell (List.nth rs i)) results in
      Report.add_row ta ~x:spread (col 0);
      Report.add_row tb ~x:spread (col 1);
      Report.add_row tc ~x:spread (col 2);
      Report.add_row td ~x:spread (col 3))
    fig5_spreads;
  [ ("fig5a", ta); ("fig5b", tb); ("fig5c", tc); ("fig5d", td) ]

let all ?(config = default_config) () =
  fig3 ~config () @ fig4 ~config () @ fig5 ~config ()

(* --- heterogeneous fleet (partial-symmetry configuration) --- *)

let hetero_fleet_params () =
  Params.check
    {
      Params.default with
      Params.num_domains = 10;
      hosts_per_domain = 1;
      host_rate_multipliers =
        [| 1.0; 1.0; 1.0; 1.0; 1.0; 2.5; 2.5; 2.5; 2.5; 2.5 |];
    }

(* --- sensitivity sweeps --- *)

let two_measures config params =
  let rs =
    run_point config params (fun h ->
        [
          Measures.unavailability h ~until:10.0;
          Measures.unreliability h ~until:10.0;
        ])
  in
  List.map ci_cell rs

let sensitivity ?(config = default_config) () =
  let series = [ "unavailability [0,10]"; "unreliability [0,10]" ] in
  let sweep title x_label xs params_of =
    let t = Report.create ~title ~x_label ~series in
    List.iter
      (fun x -> Report.add_row t ~x (two_measures config (params_of x)))
      xs;
    t
  in
  let base = Params.default in
  [
    ( "sens_detect",
      sweep "Sensitivity: host IDS detection probabilities (scaled together)"
        "scale" [ 0.25; 0.5; 0.75; 1.0 ]
        (fun s ->
          { base with
            Params.p_detect_script = s *. 0.90;
            p_detect_exploratory = s *. 0.75;
            p_detect_innovative = s *. 0.40;
          }) );
    ( "sens_recovery",
      sweep "Sensitivity: management recovery rate (per hour)" "rate"
        [ 1.0; 10.0; 100.0; 1000.0 ]
        (fun r -> { base with Params.recovery_rate = r }) );
    ( "sens_misbehave",
      sweep "Sensitivity: replication-group misbehaviour detection rate"
        "rate" [ 0.0; 1.0; 2.0; 4.0; 8.0 ]
        (fun r -> { base with Params.misbehave_rate = r }) );
    ( "sens_multiplier",
      sweep "Sensitivity: corruption multiplier on corrupt hosts"
        "multiplier" [ 1.0; 2.0; 5.0; 10.0 ]
        (fun x -> { base with Params.corruption_multiplier = x }) );
  ]

let ablation ?(config = default_config) () =
  let hot =
    {
      (fig5_params ~policy:Params.Host_exclusion ~spread:8.0) with
      Params.rate_scale = 1.0;
    }
  in
  let variants =
    [
      ("baseline (study 4.3, spread 8, host exclusion)", hot);
      ("retrying IDS misses", { hot with Params.ids_misses_sticky = false });
      ("spread quenched on exclusion",
        { hot with Params.spread_outlives_host = false });
      ("recovery not quorum-gated",
        { hot with Params.quorum_gates_recovery = false });
    ]
  in
  let legend =
    String.concat "; "
      (List.mapi (fun i (name, _) -> Printf.sprintf "%d = %s" i name) variants)
  in
  let t =
    Report.create
      ~title:("Ablations (" ^ legend ^ ")")
      ~x_label:"variant"
      ~series:[ "unavailability [0,10]"; "unreliability [0,10]" ]
  in
  List.iteri
    (fun i (_, params) ->
      Report.add_row t ~x:(float_of_int i) (two_measures config params))
    variants;
  [ ("ablation", t) ]

(* --- time trajectories --- *)

let trajectory ?(config = default_config) () =
  let hours = List.init 10 (fun i -> float_of_int (i + 1)) in
  let panel (id, label, policy) =
    let params = { Params.default with Params.policy } in
    let h = Model.build params in
    let rewards =
      List.concat_map
        (fun t ->
          [
            Measures.fraction_domains_excluded h ~at:t;
            Measures.replicas_running h ~at:t;
            Measures.unavailability h ~until:t;
          ])
        hours
    in
    let spec = Sim.Runner.spec ~model:h.Model.model ~horizon:10.0 rewards in
    let results =
      Array.of_list
        (Sim.Runner.run ~domains:config.domains ~seed:config.seed
           ~reps:config.reps spec)
    in
    let t =
      Report.create
        ~title:
          (Printf.sprintf
             "Trajectory (%s): measures over the first 10 hours" label)
        ~x_label:"hour"
        ~series:
          [ "fraction domains excluded"; "replicas running";
            "unavailability [0,t]" ]
    in
    List.iteri
      (fun i hour ->
        let cell k = ci_cell results.((3 * i) + k) in
        Report.add_row t ~x:hour [ cell 0; cell 1; cell 2 ])
      hours;
    (id, t)
  in
  List.map panel
    [
      ("traj_domain", "domain exclusion", Params.Domain_exclusion);
      ("traj_host", "host exclusion", Params.Host_exclusion);
    ]

(* --- rare-event (splitting) estimation --- *)

type rare_measure = Unreliability | Unavailability

let rare_point ?(config = default_config) ?(levels = Rare.default_levels)
    ?(clones = 4) ?initial ?(measure = Unreliability) ?(app = 0) ?handles
    ~params ~until () =
  let initial = Option.value initial ~default:config.reps in
  let h = match handles with Some h -> h | None -> Model.build params in
  let importance =
    match measure with
    | Unreliability -> Rare.unreliability ~app h ~levels
    | Unavailability -> Rare.unavailability ~app h ~levels
  in
  let cfg = Sim.Executor.config ~horizon:until () in
  Sim.Splitting.run ~domains:config.domains ~model:h.Model.model ~config:cfg
    ~importance ~levels ~clones ~initial ~seed:config.seed ()

let fig4b_rare ?(config = default_config) ?levels ?clones ?initial () =
  let t =
    Report.create
      ~title:
        "Fig 4(b) rare-event appendix: unreliability [0,5], crude MC vs \
         splitting"
      ~x_label:"hosts/domain"
      ~series:[ "crude MC"; "splitting" ]
  in
  List.iter
    (fun nh ->
      let params =
        { Params.default with
          Params.num_domains = 10;
          hosts_per_domain = nh;
          num_apps = 4;
        }
      in
      let crude =
        List.hd
          (run_point config params (fun h ->
               [ Measures.unreliability h ~until:5.0 ]))
      in
      let split =
        rare_point ~config ?levels ?clones ?initial ~measure:Unreliability
          ~params ~until:5.0 ()
      in
      Report.add_row t ~x:(float_of_int nh)
        [ ci_cell crude; Some split.Sim.Splitting.estimate.Stats.Splitting.ci ])
    [ 1; 2; 3; 4 ];
  [ ("fig4b_rare", t) ]

(* --- qualitative acceptance checks --- *)

let mean_of table ~x ~series =
  match Report.value table ~x ~series with
  | Some ci -> ci.Stats.Ci.mean
  | None -> nan

let series_means table series =
  List.map (fun x -> mean_of table ~x ~series) (Report.x_values table)

let increasing xs =
  let rec go = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && go rest
    | _ -> true
  in
  go xs

let decreasing xs = increasing (List.rev xs)

let peak_at xs ~index =
  let arr = Array.of_list xs in
  let best = ref 0 in
  Array.iteri (fun i v -> if v > arr.(!best) then best := i) arr;
  !best = index

let avg xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let shape_checks panels =
  let find id = List.assoc_opt id panels in
  let check id label f acc =
    match find id with Some t -> (label, f t) :: acc | None -> acc
  in
  List.rev
    ([]
    |> check "fig3a" "fig3a: unavailability increases with hosts/domain"
         (fun t ->
           List.for_all
             (fun s -> increasing (series_means t s))
             [ "2 applications"; "4 applications"; "6 applications";
               "8 applications" ])
    |> check "fig3b" "fig3b: unreliability peaks at 4 hosts/domain" (fun t ->
           (* x values are [1;2;3;4;6;12]; the peak must be at index 3. *)
           List.for_all
             (fun s -> peak_at (series_means t s) ~index:3)
             [ "4 applications"; "6 applications"; "8 applications" ])
    |> check "fig3c"
         "fig3c: corrupt fraction decreases with hosts/domain, < 1 at x=1"
         (fun t ->
           List.for_all
             (fun s ->
               let means = series_means t s in
               decreasing means && List.hd means < 1.0)
             [ "2 applications"; "4 applications"; "6 applications";
               "8 applications" ])
    |> check "fig3d" "fig3d: excluded fraction increases with hosts/domain"
         (fun t ->
           List.for_all
             (fun s -> increasing (series_means t s))
             [ "2 applications"; "4 applications"; "6 applications";
               "8 applications" ])
    |> check "fig4a" "fig4a: [0,10] above [0,5]; small variation" (fun t ->
           let m5 = series_means t "[0,5]" and m10 = series_means t "[0,10]" in
           List.for_all2 (fun a b -> a <= b) m5 m10)
    |> check "fig4c" "fig4c: corrupt fraction decreases with hosts/domain"
         (fun t -> decreasing (series_means t "long run"))
    |> check "fig4d" "fig4d: excluded fraction rises end-to-end; t=10 above t=5"
         (fun t ->
           (* The paper's increase over 1..4 hosts/domain is mild, so only
              the endpoints are compared (within simulation noise). *)
           let ends xs = (List.hd xs, List.nth xs (List.length xs - 1)) in
           let m5 = series_means t "at t=5" and m10 = series_means t "at t=10" in
           let f5, l5 = ends m5 and f10, l10 = ends m10 in
           l5 >= f5 -. 0.02 && l10 >= f10 -. 0.02
           && List.for_all2 (fun a b -> a <= b) m5 m10)
    |> check "fig5c" "fig5c: host-exclusion unreliability rises with spread"
         (fun t ->
           let host = series_means t "Host exclusion" in
           List.nth host (List.length host - 1) > List.hd host)
    |> check "fig5d"
         "fig5d: domain-exclusion flat in spread; host-exclusion crosses it"
         (fun t ->
           let host = series_means t "Host exclusion" in
           let dom = series_means t "Domain exclusion" in
           let dom_avg = avg dom in
           let dom_flat =
             List.for_all (fun v -> Float.abs (v -. dom_avg) < 0.6 *. dom_avg) dom
           in
           let crosses =
             List.hd host < List.hd dom
             && List.nth host (List.length host - 1)
                > List.nth dom (List.length dom - 1)
           in
           dom_flat && crosses))

