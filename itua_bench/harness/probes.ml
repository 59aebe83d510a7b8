let now = Obs.Clock.now_ns
let since = Obs.Clock.seconds_since

let timed f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Replication [i] on substream [i] of [seed], walked the way
   [Sim.Runner] walks it. *)
let each_stream ~seed n f =
  let base = ref (Prng.Stream.substream (Prng.Stream.create ~seed) 0) in
  for i = 0 to n - 1 do
    if i > 0 then base := Prng.Stream.successor !base;
    f i (Prng.Stream.substream !base 0)
  done

let median_time k f =
  let r = ref None in
  let times =
    List.init k (fun _ ->
        let v, t = timed f in
        r := Some v;
        t)
  in
  (Option.get !r, Quantiles.median times)

(* --- itua --- *)

let itua (cfg : Workloads.probe_config) =
  let h, build_s = median_time 3 (fun () -> Itua.Model.build cfg.params) in
  let model = h.Itua.Model.model in
  let activities = float_of_int (Array.length (San.Model.activities model)) in
  ( h,
    [
      ("itua.build_s", build_s);
      ("itua.build_us_per_activity", build_s *. 1e6 /. activities);
      ("itua.places", float_of_int (San.Model.n_places model));
      ("itua.activities", activities);
    ] )

(* --- sim.executor --- *)

let executor_runs = 1000
let profile_runs = 200

let profile_snapshot profile =
  let reg = Obs.Registry.create () in
  Obs.Profile.export profile ~into:reg;
  Report.Json.to_string (Obs.Registry.to_json reg)

let profile_pass ~model ~config ~seed ~runs =
  let profile = Obs.Profile.create () in
  let events = ref 0 in
  let t0 = now () in
  each_stream ~seed runs (fun _ stream ->
      let out =
        Sim.Executor.run ~profile ~model ~config ~stream
          ~observer:Sim.Observer.nop ()
      in
      events := !events + out.Sim.Executor.events);
  let wall = since t0 in
  (* Rendered now, not later: [Obs.Profile.export] folds in every GC
     delta up to the moment it is called. *)
  let snapshot = profile_snapshot profile in
  (profile, snapshot, wall, !events)

let two_state_ns_per_event ~seed =
  let model = Fixtures.two_state () in
  let config = Sim.Executor.config ~horizon:100.0 () in
  let events = ref 0 in
  let t0 = now () in
  each_stream ~seed 2000 (fun _ stream ->
      let out =
        Sim.Executor.run ~model ~config ~stream ~observer:Sim.Observer.nop ()
      in
      events := !events + out.Sim.Executor.events);
  since t0 *. 1e9 /. float_of_int !events

let executor (cfg : Workloads.probe_config) ~seed h =
  let model = h.Itua.Model.model in
  let n = executor_runs in
  let run_all ?metrics config =
    let times = Array.make n 0.0 in
    each_stream ~seed n (fun i stream ->
        let t0 = now () in
        ignore
          (Sim.Executor.run ?metrics ~model ~config ~stream
             ~observer:Sim.Observer.nop ());
        times.(i) <- since t0);
    Array.to_list times
  in
  let setup_times = run_all (Sim.Executor.config ~horizon:1e-9 ()) in
  let metrics = Sim.Metrics.create ~model in
  let config = Sim.Executor.config ~horizon:cfg.horizon () in
  let w0 = allocated_words () in
  let run_times = run_all ~metrics config in
  let alloc = allocated_words () -. w0 in
  let setup_s = mean setup_times and run_s = mean run_times in
  let events = float_of_int metrics.Sim.Metrics.events in
  let per_event x = float_of_int x /. events in
  let profile, snapshot, profile_wall, profile_events =
    profile_pass ~model ~config ~seed ~runs:profile_runs
  in
  let share phases =
    List.fold_left
      (fun acc p -> acc +. Obs.Profile.self_seconds profile p)
      0.0 phases
    /. profile_wall
  in
  ( snapshot,
    [
      ("executor.setup_us_per_run", setup_s *. 1e6);
      ("executor.setup_share", setup_s /. run_s);
      ( "executor.loop_ns_per_event",
        (run_s -. setup_s) *. 1e9 *. float_of_int n /. events );
      ("executor.events_per_run", events /. float_of_int n);
      ("executor.stale_pop_fraction", Sim.Metrics.stale_fraction metrics);
      ("executor.pops_per_event", per_event metrics.Sim.Metrics.pops);
      ( "executor.chain_steps_per_event",
        per_event metrics.Sim.Metrics.chain_steps );
      ( "executor.samples_per_event",
        float_of_int (Obs.Profile.count profile Obs.Profile.Sample)
        /. float_of_int profile_events );
      ("executor.run_us_p50", Quantiles.median run_times *. 1e6);
      ("executor.run_us_p99", Quantiles.percentile run_times 0.99 *. 1e6);
      ("executor.runs", float_of_int n);
      ("executor.alloc_words_per_run", alloc /. float_of_int n);
      ("executor.phase.stabilize_share", share [ Obs.Profile.Stabilize ]);
      ("executor.phase.propagate_share", share [ Obs.Profile.Propagate ]);
      ("executor.phase.sample_share", share [ Obs.Profile.Sample ]);
      ( "executor.phase.heap_share",
        share [ Obs.Profile.Heap_push; Obs.Profile.Heap_pop ] );
      ("executor.two_state_ns_per_event", two_state_ns_per_event ~seed);
    ] )

(* --- sim.runner / sim.reward --- *)

let runner_reps = 300

(* [Sim.Runner.run] on one domain against a bare executor loop over the
   same replications, alternated three times: the median difference is
   what the runner adds per rep (reward observers, accumulation). *)
let runner (cfg : Workloads.probe_config) ~seed h =
  let model = h.Itua.Model.model in
  let spec = Sim.Runner.spec ~model ~horizon:cfg.horizon (cfg.rewards h) in
  let config = Sim.Executor.config ~horizon:cfg.horizon () in
  let bare () =
    each_stream ~seed runner_reps (fun _ stream ->
        ignore
          (Sim.Executor.run ~model ~config ~stream
             ~observer:Sim.Observer.nop ()))
  in
  let run domains () =
    ignore (Sim.Runner.run ~domains ~seed ~reps:runner_reps spec)
  in
  let pairs =
    List.init 3 (fun _ -> (snd (timed bare), snd (timed (run 1))))
  in
  let one = Quantiles.median (List.map snd pairs) in
  let bare = Quantiles.median (List.map fst pairs) in
  let two = snd (timed (run 2)) in
  let per_rep s = s *. 1e6 /. float_of_int runner_reps in
  [
    ("runner.us_per_rep", per_rep one);
    ("reward.us_per_rep", per_rep (one -. bare));
    ("runner.speedup_2d", one /. two);
  ]

(* --- sim.splitting --- *)

(* One splitting stage by hand, with a profiler on the checkpoint and
   resume calls [Sim.Splitting] makes: runs to the first importance
   level, then four clones resumed from each crossing. *)
let checkpoint_share ~seed h =
  let model = h.Itua.Model.model in
  let config = Sim.Executor.config ~horizon:5.0 () in
  let importance =
    Itua.Rare.unreliability ~app:0 h ~levels:Itua.Rare.default_levels
  in
  let profile = Obs.Profile.create () in
  let t0 = now () in
  each_stream ~seed Workloads.rare_initial (fun _ stream ->
      match
        Sim.Executor.run_to_level ~profile ~model ~config ~stream
          ~observer:Sim.Observer.nop ~importance ~threshold:1 ()
      with
      | Sim.Executor.Finished _ -> ()
      | Sim.Executor.Crossed { checkpoint; _ } ->
          for _ = 1 to 4 do
            ignore
              (Sim.Executor.resume ~profile ~model ~config
                 ~stream:(Prng.Stream.split stream) ~observer:Sim.Observer.nop
                 checkpoint)
          done);
  Obs.Profile.self_seconds profile Obs.Profile.Checkpoint /. since t0

let splitting ~seed =
  let h = Itua.Model.build Workloads.rare_params in
  let ctx = Workloads.ctx Spans.off in
  let run domains =
    Workloads.rare_point ctx ~domains ~seed ~initial:Workloads.rare_initial h
  in
  let one = run 1 in
  let two = run 2 in
  let split = one.Workloads.split in
  let trials = float_of_int split.Sim.Splitting.total_trials in
  [
    ("splitting.trials", trials);
    ("splitting.events", float_of_int split.Sim.Splitting.total_events);
    ("splitting.us_per_trial", one.Workloads.split_s *. 1e6 /. trials);
    ("splitting.checkpoint_share", checkpoint_share ~seed h);
    ("splitting.speedup_2d", one.Workloads.split_s /. two.Workloads.split_s);
    ( "crude.us_per_rep",
      one.Workloads.crude_s *. 1e6 /. float_of_int Workloads.rare_initial );
  ]

(* --- ctmc --- *)

let ctmc_fleet = 9

let ctmc () =
  let model, info, states =
    Fixtures.fleet ~n:ctmc_fleet ~rate_of:Fixtures.homogeneous_rate
  in
  let w0 = allocated_words () in
  let c, explore_s = timed (fun () -> Ctmc.Explore.explore model) in
  let alloc = allocated_words () -. w0 in
  let n = Ctmc.Explore.n_states c in
  let transitions = ref 0 in
  for i = 0 to n - 1 do
    transitions := !transitions + List.length (Ctmc.Explore.transitions c i)
  done;
  let _, solve_s =
    timed (fun () ->
        Ctmc.Measure.instant c ~at:5.0 (Fixtures.excluded states))
  in
  let rep = Analysis.Orbit.analyse model info in
  let lumped, lumped_s =
    timed (fun () ->
        Ctmc.Explore.explore ~canon:(Analysis.Orbit.canon rep) ~audit:true
          model)
  in
  [
    ("ctmc.explore_s", explore_s);
    ("ctmc.states", float_of_int n);
    ("ctmc.transitions", float_of_int !transitions);
    ("ctmc.states_per_s", float_of_int n /. explore_s);
    ("ctmc.alloc_words_per_state", alloc /. float_of_int n);
    ("ctmc.solve_s", solve_s);
    ("ctmc.lumped_explore_s", lumped_s);
    ( "ctmc.lump_ratio",
      float_of_int n /. float_of_int (Ctmc.Explore.n_states lumped) );
  ]

(* --- analysis --- *)

let analysis () =
  let small, large =
    match Workloads.certificate_configs with
    | [ (_, s); (_, l) ] -> (Itua.Model.build s, Itua.Model.build l)
    | _ -> invalid_arg "Probes.analysis: two certificate configurations"
  in
  let model = small.Itua.Model.model in
  let space, space_s = timed (fun () -> Analysis.Space.build model) in
  (* With no work budget the exhaustive walk gives up at once: what is
     left is the sampled fallback alone. *)
  let _, sampled_s =
    timed (fun () -> Analysis.Space.build ~max_work:0 model)
  in
  let facts, gather_s = timed (fun () -> Analysis.Passes.gather space) in
  let _, passes_s =
    timed (fun () ->
        Analysis.Passes.all ~composition:small.Itua.Model.composition facts)
  in
  let _, orbit_s =
    timed (fun () ->
        Analysis.Orbit.analyse model small.Itua.Model.composition)
  in
  let laws = Itua.Invariant.conservation_laws large in
  let large_space = Analysis.Space.build large.Itua.Model.model in
  let w0 = allocated_words () in
  let _, structure_s =
    timed (fun () -> Analysis.Structure.analyse ~laws large_space)
  in
  let structure_alloc = allocated_words () -. w0 in
  [
    ("analysis.space_s", space_s);
    ( "analysis.space_markings",
      float_of_int (Analysis.Space.n_markings space) );
    ( "analysis.space_exhaustive_share",
      Float.max 0.0 (1.0 -. (sampled_s /. space_s)) );
    ("analysis.gather_s", gather_s);
    ("analysis.passes_s", passes_s);
    ("analysis.orbit_s", orbit_s);
    ("analysis.structure_s", structure_s);
    ("analysis.structure_alloc_words", structure_alloc);
  ]

let all spans (w : Workloads.t) ~seed =
  let probe layer f = Spans.span spans ~layer ("probe." ^ layer) f in
  Spans.span spans ~layer:"probe" "probes" (fun () ->
      let h, itua = probe "itua" (fun () -> itua w.probe) in
      let snapshot, executor =
        probe "sim.executor" (fun () -> executor w.probe ~seed h)
      in
      let runner = probe "sim.runner" (fun () -> runner w.probe ~seed h) in
      let splitting = probe "sim.splitting" (fun () -> splitting ~seed) in
      let ctmc = probe "ctmc" ctmc in
      let analysis = probe "analysis" analysis in
      (itua @ executor @ runner @ splitting @ ctmc @ analysis, snapshot))
