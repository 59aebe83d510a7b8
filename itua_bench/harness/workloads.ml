type ctx = { spans : Spans.t; mutable setup_s : float }

let ctx spans = { spans; setup_s = 0.0 }
let call ctx ~layer name f = Spans.span ctx.spans ~layer name f

let setup ctx ~layer name f =
  let t0 = Obs.Clock.now_ns () in
  let r = call ctx ~layer name f in
  ctx.setup_s <- ctx.setup_s +. Obs.Clock.seconds_since t0;
  r

type pass = {
  rendered : string;
  checks : (string * bool) list;
  notes : (string * bool) list;
  stats : (string * float) list;
}

type probe_config = {
  params : Itua.Params.t;
  horizon : float;
  rewards : Itua.Model.handles -> Sim.Reward.spec list;
}

type t = {
  name : string;
  why : string;
  vary_seed : bool;
  run_pass : ctx -> seed:int64 -> pass;
  run_checks : pass list -> (string * bool) list;
  probe : probe_config;
}

(* --- configurations --- *)

let itua ?(apps = 4) ?(replicas = 7) domains hosts =
  {
    Itua.Params.default with
    Itua.Params.num_domains = domains;
    hosts_per_domain = hosts;
    num_apps = apps;
    num_reps = replicas;
  }

(* The Study 4.1 and 4.3 grids, swept as [Itua.Study.fig3]/[fig5] do. *)
let fig3_distributions = [ (12, 1); (6, 2); (4, 3); (3, 4); (2, 6); (1, 12) ]
let fig3_app_counts = [ 2; 4; 6; 8 ]
let fig5_spreads = [ 0.0; 2.0; 4.0; 6.0; 8.0; 10.0 ]

let fig5_params ~policy ~spread =
  {
    (itua 10 3) with
    Itua.Params.policy;
    corruption_multiplier = 5.0;
    spread_rate_domain = spread;
    spread_effect_domain = spread;
    rate_scale = 1.0;
  }

let rare_params = itua 10 1

(* [itua_sim mtta]'s configuration: the smallest system whose chain is
   explorable. *)
let minimal_params =
  {
    (itua ~apps:1 ~replicas:1 1 1) with
    Itua.Params.policy = Itua.Params.Domain_exclusion;
    corruption_multiplier = 2.0;
    spread_rate_domain = 1.0;
    spread_effect_domain = 1.0;
    rate_scale = 0.4;
  }

(* The CI golden configuration, and the Study 4.2 shape cut to three
   domains. On 2x2x2x2 the exhaustive walk spends its whole visit budget
   before [Analysis.Space.build] falls back to sampling; on 3x1x4x7
   [Analysis.Structure.analyse] dominates. The 10x1x4x7 certificate takes
   over five seconds, too long to repeat within a run. *)
let certificate_configs =
  [ ("2x2x2x2", itua ~apps:2 ~replicas:2 2 2); ("3x1x4x7", itua 3 1) ]

(* --- shared pieces --- *)

let build ctx params =
  setup ctx ~layer:"itua" "Itua.Model.build" (fun () ->
      Itua.Model.build params)

(* [Itua.Study]'s run_point on one domain, with model construction timed
   as set-up. *)
let run_point ctx ~seed ~reps params rewards =
  let h = build ctx params in
  let horizon =
    List.fold_left
      (fun acc spec -> Float.max acc (Sim.Reward.latest_time spec))
      1.0 (rewards h)
  in
  let spec = Sim.Runner.spec ~model:h.Itua.Model.model ~horizon (rewards h) in
  call ctx ~layer:"sim.runner" "Sim.Runner.run" (fun () ->
      Sim.Runner.run ~domains:1 ~seed ~reps spec)

let ci_cell (r : Sim.Runner.result) =
  if r.Sim.Runner.n_defined = 0 then None else Some r.Sim.Runner.ci

let render ctx panels =
  call ctx ~layer:"report" "Report.pp_text" (fun () ->
      String.concat ""
        (List.map
           (fun (id, t) -> Format.asprintf "%s@.%a" id Report.pp_text t)
           panels))

(* Every cell defined, with a finite mean in [0, 1] and a finite
   half-width: all four measures of both sweeps are probabilities or
   fractions. *)
let cells_ok ~series panels =
  List.for_all
    (fun (_, t) ->
      List.for_all
        (fun x ->
          List.for_all
            (fun series ->
              match Report.value t ~x ~series with
              | None -> false
              | Some ci ->
                  let m = ci.Stats.Ci.mean in
                  Float.is_finite m && m >= 0.0 && m <= 1.0
                  && Float.is_finite ci.Stats.Ci.half_width)
            series)
        (Report.x_values t))
    panels

(* [Itua.Study.shape_checks] split by how they behave at the harness's
   replication counts: the [robust] ones held on each of 140 seeds tried;
   the others failed on some (fig3b on 41 of 100) and are printed as
   notes. *)
let shape_split ~robust panels =
  List.partition
    (fun (label, _) ->
      List.exists (fun p -> String.starts_with ~prefix:p label) robust)
    (Itua.Study.shape_checks panels)

(* --- fig3_sweep --- *)

let fig3_reps = 200

let fig3_rewards h =
  [
    Itua.Measures.unavailability h ~until:5.0;
    Itua.Measures.unreliability h ~until:5.0;
    Itua.Measures.fraction_corrupt_in_excluded h;
    Itua.Measures.fraction_domains_excluded h ~at:5.0;
  ]

let fig3_panels ctx ~seed ~reps =
  let series = List.map (Printf.sprintf "%d applications") fig3_app_counts in
  let table title = Report.create ~title ~x_label:"hosts/domain" ~series in
  let ta = table "Fig 3(a): unavailability for the first 5 hours" in
  let tb = table "Fig 3(b): unreliability for the first 5 hours" in
  let tc = table "Fig 3(c): fraction of corrupt hosts in an excluded domain" in
  let td = table "Fig 3(d): fraction of domains excluded at t=5" in
  List.iter
    (fun (nd, nh) ->
      let results =
        List.map
          (fun na ->
            run_point ctx ~seed ~reps (itua ~apps:na nd nh) fig3_rewards)
          fig3_app_counts
      in
      let col i = List.map (fun rs -> ci_cell (List.nth rs i)) results in
      let x = float_of_int nh in
      Report.add_row ta ~x (col 0);
      Report.add_row tb ~x (col 1);
      Report.add_row tc ~x (col 2);
      Report.add_row td ~x (col 3))
    fig3_distributions;
  ([ ("fig3a", ta); ("fig3b", tb); ("fig3c", tc); ("fig3d", td) ], series)

let sweep_pass ~robust panels_of ctx ~seed =
  let panels, series = panels_of ctx ~seed in
  let rendered = render ctx panels in
  let checks, notes = shape_split ~robust panels in
  {
    rendered;
    checks = ("cells_defined", cells_ok ~series panels) :: checks;
    notes;
    stats = [];
  }

let fig3_sweep =
  {
    name = "fig3_sweep";
    why =
      "Study 4.1 sweep: 24 freshly built models with short runs, so \
       model build and per-run setup dominate";
    vary_seed = false;
    run_pass =
      sweep_pass ~robust:[ "fig3a"; "fig3d" ] (fig3_panels ~reps:fig3_reps);
    run_checks = (fun _ -> []);
    probe =
      {
        params = itua ~apps:8 4 3;
        horizon = 5.0;
        rewards = fig3_rewards;
      };
  }

(* --- fig5_sweep --- *)

let fig5_reps = 150

let fig5_rewards h =
  [
    Itua.Measures.unavailability h ~until:5.0;
    Itua.Measures.unavailability h ~until:10.0;
    Itua.Measures.unreliability h ~until:5.0;
    Itua.Measures.unreliability h ~until:10.0;
  ]

let fig5_panels ctx ~seed ~reps =
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
            run_point ctx ~seed ~reps
              (fig5_params ~policy ~spread)
              fig5_rewards)
          [ Itua.Params.Host_exclusion; Itua.Params.Domain_exclusion ]
      in
      let col i = List.map (fun rs -> ci_cell (List.nth rs i)) results in
      Report.add_row ta ~x:spread (col 0);
      Report.add_row tb ~x:spread (col 1);
      Report.add_row tc ~x:spread (col 2);
      Report.add_row td ~x:spread (col 3))
    fig5_spreads;
  ([ ("fig5a", ta); ("fig5b", tb); ("fig5c", tc); ("fig5d", td) ], series)

let fig5_sweep =
  {
    name = "fig5_sweep";
    why =
      "Study 4.3 sweep: the longest trajectories (about 215 events at \
       spread 10 under host exclusion), so the event loop dominates";
    vary_seed = false;
    run_pass =
      sweep_pass ~robust:[ "fig5d" ] (fig5_panels ~reps:fig5_reps);
    run_checks = (fun _ -> []);
    probe =
      {
        params = fig5_params ~policy:Itua.Params.Host_exclusion ~spread:10.0;
        horizon = 10.0;
        rewards = fig5_rewards;
      };
  }

(* --- rare_tail --- *)

let rare_initial = 500

type rare = {
  crude : Sim.Runner.result;
  crude_events : int;
  crude_s : float;
  split : Sim.Splitting.result;
  split_s : float;
  wnv_reduction : float;
}

(* Work-normalised variance: the estimator's variance after one activity
   firing of work. The crude per-rep variance is gamma (1 - gamma) with
   gamma from the splitting estimate; the crude estimate itself is too
   coarse this far out in the tail. *)
let rare_point ctx ~domains ~seed ~initial h =
  let model = h.Itua.Model.model in
  let metrics = Sim.Metrics.create ~model in
  let spec =
    Sim.Runner.spec ~model ~horizon:5.0
      [ Itua.Measures.unreliability h ~until:5.0 ]
  in
  let t0 = Obs.Clock.now_ns () in
  let crude =
    List.hd
      (call ctx ~layer:"sim.runner" "Sim.Runner.run" (fun () ->
           Sim.Runner.run ~domains ~metrics ~seed ~reps:initial spec))
  in
  let crude_s = Obs.Clock.seconds_since t0 in
  let t0 = Obs.Clock.now_ns () in
  let split =
    call ctx ~layer:"sim.splitting" "Itua.Study.rare_point" (fun () ->
        Itua.Study.rare_point
          ~config:{ Itua.Study.reps = initial; seed; domains }
          ~handles:h ~initial ~params:h.Itua.Model.params ~until:5.0 ())
  in
  let split_s = Obs.Clock.seconds_since t0 in
  let gamma = split.Sim.Splitting.estimate.Stats.Splitting.probability in
  let crude_events = metrics.Sim.Metrics.events in
  let wnv_crude =
    gamma *. (1.0 -. gamma) *. float_of_int crude_events
    /. float_of_int initial
  in
  let wnv_split =
    Stats.Splitting.variance split.Sim.Splitting.estimate
    *. float_of_int split.Sim.Splitting.total_events
  in
  {
    crude;
    crude_events;
    crude_s;
    split;
    split_s;
    wnv_reduction = wnv_crude /. wnv_split;
  }

let rare_pass ctx ~seed =
  let h = build ctx rare_params in
  let r = rare_point ctx ~domains:1 ~seed ~initial:rare_initial h in
  let e = r.split.Sim.Splitting.estimate in
  let p = e.Stats.Splitting.probability in
  let rendered =
    Format.asprintf
      "crude %d reps, %d events: %a@.splitting %d levels x %d clones, %d \
       trials, %d events: %a@."
      r.crude.Sim.Runner.n_runs r.crude_events Stats.Ci.pp r.crude.Sim.Runner.ci
      r.split.Sim.Splitting.levels r.split.Sim.Splitting.clones
      r.split.Sim.Splitting.total_trials r.split.Sim.Splitting.total_events
      Stats.Ci.pp e.Stats.Splitting.ci
  in
  {
    rendered;
    checks =
      [
        ("splitting_p_in_unit_interval", p >= 0.0 && p < 1.0);
        ( "crude_defined",
          r.crude.Sim.Runner.n_defined = r.crude.Sim.Runner.n_runs );
      ];
    notes = [];
    stats = [ ("splitting_p", p); ("wnv_reduction", r.wnv_reduction) ];
  }

let rare_tail =
  {
    name = "rare_tail";
    why =
      "RESTART splitting: checkpoint copies and many short resumed \
       segments, next to a crude Monte Carlo baseline";
    (* A splitting run's effort (trials, events) varies by about 10%
       between seeds, so each pass draws its own sub-seed: the run's
       median then averages that variation out instead of repeating one
       draw. *)
    vary_seed = true;
    run_pass = rare_pass;
    (* One pass in which no trial reaches the top level estimates p = 0
       and leaves the variance ratio undefined; the run's median does
       not. *)
    run_checks =
      (fun passes ->
        let median name =
          match
            List.filter Float.is_finite
              (List.map (fun p -> List.assoc name p.stats) passes)
          with
          | [] -> nan
          | xs -> Quantiles.median xs
        in
        [
          ("splitting_p_positive", median "splitting_p" > 0.0);
          ("wnv_reduction_at_least_10x", median "wnv_reduction" >= 10.0);
        ]);
    probe =
      {
        params = rare_params;
        horizon = 5.0;
        rewards = (fun h -> [ Itua.Measures.unreliability h ~until:5.0 ]);
      };
  }

(* --- certificate --- *)

(* [Analysis.Check.run ~composition ~laws], one stage at a time, so each
   stage is its own span: what [itua_sim check --strict --invariants
   --symmetry] computes. *)
let staged_check ctx h =
  let model = h.Itua.Model.model in
  let composition = h.Itua.Model.composition in
  let laws = Itua.Invariant.conservation_laws h in
  let analysis name f = call ctx ~layer:"analysis" name f in
  let space =
    analysis "Analysis.Space.build" (fun () -> Analysis.Space.build model)
  in
  let facts =
    analysis "Analysis.Passes.gather" (fun () -> Analysis.Passes.gather space)
  in
  let structure =
    analysis "Analysis.Structure.analyse" (fun () ->
        Analysis.Structure.analyse ~laws space)
  in
  let diagnostics =
    analysis "Analysis.Passes.all" (fun () ->
        Analysis.Passes.all ~composition facts
        @ Analysis.Structure.diagnostics structure
        |> List.sort_uniq Analysis.Diagnostic.compare)
  in
  let report =
    {
      Analysis.Check.model_name = San.Model.name model;
      mode = space.Analysis.Space.mode;
      n_stable = space.Analysis.Space.n_stable;
      n_vanishing = space.Analysis.Space.n_vanishing;
      truncated = space.Analysis.Space.truncated;
      fallback = space.Analysis.Space.fallback;
      diagnostics;
      structure;
      incidence =
        (match structure.Analysis.Structure.incidence with
        | Analysis.Structure.Exact -> "exact"
        | Analysis.Structure.Observed -> "observed");
      sampled_fallbacks = Analysis.Structure.sampled_fallbacks structure;
    }
  in
  let orbits =
    analysis "Analysis.Orbit.analyse" (fun () ->
        Analysis.Orbit.analyse model composition)
  in
  (report, orbits)

let certificate_pass ctx ~seed:_ =
  let results =
    List.map
      (fun (label, params) -> (label, staged_check ctx (build ctx params)))
      certificate_configs
  in
  let rendered =
    call ctx ~layer:"report" "Report.Json.to_string" (fun () ->
        String.concat "\n"
          (List.map
             (fun (_, (report, orbits)) ->
               Report.Json.to_string (Analysis.Check.to_json report)
               ^ Report.Json.to_string (Analysis.Orbit.to_json orbits))
             results))
  in
  let checks =
    List.concat_map
      (fun (label, (report, _)) ->
        [
          ( label ^ ".strict_exit_0",
            Analysis.Check.exit_code ~strict:true report = 0 );
          ( label ^ ".incidence_exact",
            report.Analysis.Check.incidence = "exact" );
          ( label ^ ".no_sampled_fallbacks",
            report.Analysis.Check.sampled_fallbacks = [] );
        ])
      results
  in
  (* The merged --symmetry report also carries the A018 warnings the
     [on_host] identity coupling raises, so its strict exit code is 1 by
     design; the count is printed, not checked. *)
  let stats =
    List.map
      (fun (label, (_, orbits)) ->
        ( label ^ ".a018_warnings",
          float_of_int
            (List.length
               (List.filter
                  (fun d ->
                    String.starts_with ~prefix:"A018" d.Analysis.Diagnostic.code
                    && d.Analysis.Diagnostic.severity
                       = Analysis.Diagnostic.Warning)
                  (Analysis.Orbit.diagnostics orbits))) ))
      results
  in
  { rendered; checks; notes = []; stats }

let certificate =
  {
    name = "certificate";
    why =
      "staged check --strict --invariants --symmetry: static analysis \
       (space walk, structure, orbits) with no simulation";
    vary_seed = false;
    run_pass = certificate_pass;
    run_checks = (fun _ -> []);
    probe =
      {
        params = snd (List.hd certificate_configs);
        horizon = 5.0;
        rewards =
          (fun h ->
            [
              Itua.Measures.unavailability h ~until:5.0;
              Itua.Measures.unreliability h ~until:5.0;
            ]);
      };
  }

(* --- ctmc_exact --- *)

let fleet_size = 10

type lump = {
  orbits : int;
  full_states : int;
  lumped_states : int;
  delta : float;
}

let lump_case ctx ~n ~rate_of =
  let model, info, states =
    setup ctx ~layer:"san" "San.Model.Builder.build" (fun () ->
        Fixtures.fleet ~n ~rate_of)
  in
  let rep =
    call ctx ~layer:"analysis" "Analysis.Orbit.analyse" (fun () ->
        Analysis.Orbit.analyse model info)
  in
  let explore ?canon ?audit () =
    call ctx ~layer:"ctmc" "Ctmc.Explore.explore" (fun () ->
        Ctmc.Explore.explore ?canon ?audit model)
  in
  let at5 c =
    call ctx ~layer:"ctmc" "Ctmc.Measure.instant" (fun () ->
        Ctmc.Measure.instant c ~at:5.0 (Fixtures.excluded states))
  in
  let full = explore () in
  let full_at5 = at5 full in
  let lumped = explore ~canon:(Analysis.Orbit.canon rep) ~audit:true () in
  let lumped_at5 = at5 lumped in
  {
    orbits =
      List.fold_left
        (fun acc f -> acc + List.length f.Analysis.Orbit.fa_orbits)
        0 rep.Analysis.Orbit.families;
    full_states = Ctmc.Explore.n_states full;
    lumped_states = Ctmc.Explore.n_states lumped;
    delta = Float.abs (full_at5 -. lumped_at5);
  }

(* [itua_sim mtta] with [--lump off] and [--lump auto]. *)
let mtta ctx =
  let h = build ctx minimal_params in
  let model = h.Itua.Model.model in
  let solve ?canon ?audit () =
    let c =
      call ctx ~layer:"ctmc" "Ctmc.Explore.explore" (fun () ->
          Ctmc.Explore.explore ?canon ?audit model)
    in
    ( Ctmc.Explore.n_states c,
      call ctx ~layer:"ctmc" "Ctmc.Absorb.mean_time_to_absorption" (fun () ->
          Ctmc.Absorb.mean_time_to_absorption c) )
  in
  let states, flat = solve () in
  let rep =
    call ctx ~layer:"analysis" "Analysis.Orbit.analyse" (fun () ->
        Analysis.Orbit.analyse model h.Itua.Model.composition)
  in
  let _, lumped = solve ~canon:(Analysis.Orbit.canon rep) ~audit:true () in
  (states, flat, lumped)

let ctmc_pass ctx ~seed:_ =
  let hom = lump_case ctx ~n:fleet_size ~rate_of:Fixtures.homogeneous_rate in
  let het =
    lump_case ctx ~n:Fixtures.hetero_size ~rate_of:Fixtures.hetero_rate
  in
  let states, flat, lumped = mtta ctx in
  let rendered =
    Printf.sprintf
      "homogeneous %d orbit(s) %d -> %d delta %.17g\n\
       heterogeneous %d orbit(s) %d -> %d delta %.17g\n\
       mtta %d states %.17g lumped %.17g\n"
      hom.orbits hom.full_states hom.lumped_states hom.delta het.orbits
      het.full_states het.lumped_states het.delta states flat lumped
  in
  let full = int_of_float (3.0 ** float_of_int fleet_size) in
  {
    rendered;
    checks =
      [
        ( "homogeneous_states",
          hom.full_states = full && hom.lumped_states = 66 );
        ("homogeneous_one_orbit", hom.orbits = 1);
        ("homogeneous_delta_1e-9", hom.delta <= 1e-9);
        ( "heterogeneous_states",
          het.full_states = full && het.lumped_states = 441 );
        ("heterogeneous_two_orbits", het.orbits = 2);
        ("heterogeneous_delta_1e-9", het.delta <= 1e-9);
        ("mtta_states", states = 457);
        ( "mtta_lumped_equals_flat",
          Float.abs (flat -. lumped) <= 1e-9 *. Float.abs flat );
      ];
    notes = [];
    stats = [];
  }

let ctmc_exact =
  {
    name = "ctmc_exact";
    why =
      "pure CTMC work, no simulator: unlumped and orbit-lumped fleet \
       chains, transient solves and an exact MTTA";
    vary_seed = false;
    run_pass = ctmc_pass;
    run_checks = (fun _ -> []);
    probe =
      {
        params = minimal_params;
        horizon = 10.0;
        rewards = (fun h -> [ Itua.Measures.unreliability h ~until:10.0 ]);
      };
  }

let all = [ fig3_sweep; fig5_sweep; rare_tail; certificate; ctmc_exact ]
let find name = List.find_opt (fun w -> w.name = name) all
