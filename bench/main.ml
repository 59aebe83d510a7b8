(* Benchmark / reproduction harness.

   Regenerates every figure of the paper's evaluation (Section 4) and runs
   Bechamel micro-benchmarks of the simulation engine.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe fig3 fig5b     -- selected figures/panels
     dune exec bench/main.exe perf           -- engine micro-benchmarks only
     ITUA_BENCH_REPS=500 dune exec bench/main.exe   -- cheaper runs

   Panel CSVs are written to results/ for external plotting. Every
   invocation also writes BENCH_sim.json — a machine-readable perf record
   (engine micro-benchmarks, events/sec throughput, the rare-event
   crude-vs-splitting record, wall-clock per figure) that later
   optimization work is judged against; see doc/OBSERVABILITY.md and
   doc/RARE_EVENTS.md. *)

let reps_from_env () =
  match Sys.getenv_opt "ITUA_BENCH_REPS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | Some _ | None ->
          prerr_endline "ITUA_BENCH_REPS must be a positive integer";
          exit 2)
  | None -> Itua.Study.default_config.Itua.Study.reps

let config () =
  { Itua.Study.default_config with Itua.Study.reps = reps_from_env () }

let ensure_results_dir () =
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755

let print_panels panels =
  ensure_results_dir ();
  List.iter
    (fun (id, table) ->
      Format.printf "@.%a" Report.pp_text table;
      let path = Filename.concat "results" (id ^ ".csv") in
      Report.write_csv path table;
      Format.printf "  [csv: %s]@." path)
    panels;
  let checks = Itua.Study.shape_checks panels in
  if checks <> [] then begin
    Format.printf "@.Shape checks against the paper:@.";
    List.iter
      (fun (label, ok) ->
        Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") label)
      checks
  end

(* --- Bechamel micro-benchmarks of the engine --- *)

let bench_two_state () =
  let b = San.Model.Builder.create "two_state" in
  let up = San.Model.Builder.int_place b ~init:1 "up" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"fail"
    ~rate:(San.Effect.RConst 1.0)
    ~guard:San.Effect.(Cmp (Mark up, Eq, Int 1))
    ~reads:[ San.Place.P up ]
    San.Effect.(Ops [ Set (up, Int 0) ]);
  San.Model.Builder.timed_exp_rate_ir b ~name:"repair"
    ~rate:(San.Effect.RConst 10.0)
    ~guard:San.Effect.(Cmp (Mark up, Eq, Int 0))
    ~reads:[ San.Place.P up ]
    San.Effect.(Ops [ Set (up, Int 1) ]);
  San.Model.Builder.build b

let perf_tests () =
  let two_state = bench_two_state () in
  let ts_cfg = Sim.Executor.config ~horizon:100.0 () in
  let itua_handles = Itua.Model.build Itua.Params.default in
  let itua_cfg = Sim.Executor.config ~horizon:10.0 () in
  let counter = ref 0 in
  let next_stream () =
    incr counter;
    Prng.Stream.create ~seed:(Int64.of_int !counter)
  in
  [
    Bechamel.Test.make ~name:"executor: two-state, 100h horizon"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Sim.Executor.run ~model:two_state ~config:ts_cfg
                ~stream:(next_stream ()) ~observer:Sim.Observer.nop ())));
    Bechamel.Test.make ~name:"executor: ITUA 10x3/4 apps, 10h replication"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Sim.Executor.run ~model:itua_handles.Itua.Model.model
                ~config:itua_cfg ~stream:(next_stream ())
                ~observer:Sim.Observer.nop ())));
    Bechamel.Test.make ~name:"model build: ITUA 10x3/4 apps"
      (Bechamel.Staged.stage (fun () ->
           ignore (Itua.Model.build Itua.Params.default)));
  ]

(* Returns [(name, ns_per_run)] — printed and recorded in BENCH_sim.json. *)
let run_perf () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) ()
  in
  let raw =
    List.map
      (fun test -> Benchmark.all cfg instances test)
      (List.map (fun t -> Test.make_grouped ~name:"engine" [ t ]) (perf_tests ()))
  in
  let estimates = ref [] in
  List.iter
    (fun results ->
      Hashtbl.iter
        (fun name raw_results ->
          let ols =
            Analyze.ols ~bootstrap:0 ~r_square:false
              ~predictors:[| Measure.run |]
          in
          let est =
            Analyze.one ols Toolkit.Instance.monotonic_clock raw_results
          in
          match Analyze.OLS.estimates est with
          | Some [ ns_per_run ] -> estimates := (name, ns_per_run) :: !estimates
          | Some _ | None -> ())
        results)
    raw;
  let micro = List.rev !estimates in
  Format.printf "@.Engine micro-benchmarks (monotonic clock):@.";
  List.iter
    (fun (name, ns) -> Format.printf "  %-45s %12.0f ns/run@." name ns)
    micro;
  micro

(* --- engine throughput (events/sec, via Sim.Metrics) --- *)

(* Monotonic, like every duration in the telemetry stack: a wall-clock
   step mid-benchmark must not corrupt the recorded timings. *)
let now () = Obs.Clock.ns_to_s (Obs.Clock.now_ns ())

(* The [itua-metrics/1] snapshot for one throughput row: engine counters
   and per-activity firings from [Sim.Metrics], phase self-times and GC
   deltas from the profiler. Embedded verbatim in BENCH_sim.json (it is
   already canonical [Report.Json] text) so tools/perf_gate.py can print
   the phase breakdown of a regressed row. *)
let throughput_metrics_json metrics profile =
  let reg = Obs.Registry.create () in
  Sim.Metrics.export metrics ~into:reg;
  Obs.Profile.export profile ~into:reg;
  Report.Json.to_string (Obs.Registry.to_json reg)

(* Each row also carries a phase profile; its snapshot is embedded in
   BENCH_sim.json so the CI perf gate can show WHERE the time went when
   a row regresses. The profile comes from a SEPARATE pass over the same
   runs: per-phase clock reads cost ~4x on tight event loops, so
   profiling the timed loop would corrupt the events/sec number being
   gated. The phase proportions are what the gate prints; only the gated
   throughput must be clean. The snapshot is rendered as soon as the
   pass ends: the profiler's GC counters are deltas up to the export, so
   a later export would also count every section run in between. *)
let profiled_snapshot ~metrics ~model ~config ~runs =
  let profile = Obs.Profile.create () in
  for i = 1 to runs do
    ignore
      (Sim.Executor.run ~profile ~model ~config
         ~stream:(Prng.Stream.create ~seed:(Int64.of_int i))
         ~observer:Sim.Observer.nop ())
  done;
  throughput_metrics_json metrics profile

let measure_throughput ~name ~model ~config ~runs =
  let metrics = Sim.Metrics.create ~model in
  let t0 = now () in
  for i = 1 to runs do
    ignore
      (Sim.Executor.run ~metrics ~model ~config
         ~stream:(Prng.Stream.create ~seed:(Int64.of_int i))
         ~observer:Sim.Observer.nop ())
  done;
  Sim.Metrics.add_wall metrics (now () -. t0);
  (name, metrics, profiled_snapshot ~metrics ~model ~config ~runs)

(* Same as [measure_throughput], but with a trajectory recorder attached —
   tracks the observer overhead of [--record-failures]. *)
let measure_throughput_recording ~name ~handles ~config ~runs =
  let model = handles.Itua.Model.model in
  let metrics = Sim.Metrics.create ~model in
  let sink =
    Sim.Trajectory.sink ~k:10
      ~predicate:(Itua.Forensics.failed_now handles)
      ~model ()
  in
  let observer = Sim.Trajectory.observer sink in
  let t0 = now () in
  for i = 1 to runs do
    ignore
      (Sim.Executor.run ~metrics ~model ~config
         ~stream:(Prng.Stream.create ~seed:(Int64.of_int i))
         ~observer ());
    Sim.Trajectory.offer sink ~rep:i
  done;
  Sim.Metrics.add_wall metrics (now () -. t0);
  (name, metrics, profiled_snapshot ~metrics ~model ~config ~runs)

let run_throughput () =
  let two_state = bench_two_state () in
  let itua_handles = Itua.Model.build Itua.Params.default in
  let records =
    [
      measure_throughput ~name:"two_state_100h" ~model:two_state
        ~config:(Sim.Executor.config ~horizon:100.0 ())
        ~runs:2000;
      measure_throughput ~name:"itua_default_10h"
        ~model:itua_handles.Itua.Model.model
        ~config:(Sim.Executor.config ~horizon:10.0 ())
        ~runs:50;
      measure_throughput_recording ~name:"itua_default_10h_recording"
        ~handles:itua_handles
        ~config:(Sim.Executor.config ~horizon:10.0 ())
        ~runs:50;
    ]
  in
  Format.printf "@.Engine throughput (telemetry on):@.";
  List.iter
    (fun (name, m, _snapshot) ->
      Format.printf "  %-45s %10.3g events/sec (%d events over %.2fs)@." name
        (Sim.Metrics.events_per_sec m)
        m.Sim.Metrics.events m.Sim.Metrics.wall_seconds)
    records;
  records

(* --- rare-event tail: crude MC vs importance splitting --- *)

type rare_bench = {
  rb_label : string;
  rb_crude_reps : int;
  rb_crude_events : int;
  rb_crude_wall : float;
  rb_crude_ci : Stats.Ci.t;
  rb_split_wall : float;
  rb_split : Sim.Splitting.result;
  rb_wnv_crude : float;
  rb_wnv_split : float;
}

(* Study 4.2's sharpest tail: 10 domains x 1 host, 4 applications,
   unreliability over [0,5] — the panel point where crude MC at the
   study's replication count sees a handful of hits at best. The two
   estimators are compared by work-normalized variance (estimator
   variance x activity firings consumed, invariant to the budget split);
   see doc/RARE_EVENTS.md. *)
let run_rare ~cfg () =
  let params =
    {
      Itua.Params.default with
      Itua.Params.num_domains = 10;
      hosts_per_domain = 1;
      num_apps = 4;
    }
  in
  let h = Itua.Model.build params in
  let reps = Int.min cfg.Itua.Study.reps 2000 in
  let metrics = Sim.Metrics.create ~model:h.Itua.Model.model in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:5.0
      [ Itua.Measures.unreliability h ~until:5.0 ]
  in
  let t0 = now () in
  let crude =
    List.hd
      (Sim.Runner.run ~domains:cfg.Itua.Study.domains ~metrics
         ~seed:cfg.Itua.Study.seed ~reps spec)
  in
  let crude_wall = now () -. t0 in
  let t0 = now () in
  let split =
    Itua.Study.rare_point ~config:cfg ~initial:reps ~params ~until:5.0 ()
  in
  let split_wall = now () -. t0 in
  (* Work-normalized variance: what the estimator's variance would be
     after one unit of work (one activity firing). The crude per-rep
     variance is gamma(1-gamma) with gamma taken from the splitting
     estimate — the crude estimate itself is too coarse here to plug into
     its own variance. *)
  let gamma = split.Sim.Splitting.estimate.Stats.Splitting.probability in
  let crude_cost =
    float_of_int metrics.Sim.Metrics.events /. float_of_int reps
  in
  let wnv_crude = gamma *. (1.0 -. gamma) *. crude_cost in
  let wnv_split =
    Stats.Splitting.variance split.Sim.Splitting.estimate
    *. float_of_int split.Sim.Splitting.total_events
  in
  let r =
    {
      rb_label = "10x1 hosts, 4 apps, unreliability [0,5]";
      rb_crude_reps = reps;
      rb_crude_events = metrics.Sim.Metrics.events;
      rb_crude_wall = crude_wall;
      rb_crude_ci = crude.Sim.Runner.ci;
      rb_split_wall = split_wall;
      rb_split = split;
      rb_wnv_crude = wnv_crude;
      rb_wnv_split = wnv_split;
    }
  in
  Format.printf "@.Rare-event tail (%s):@." r.rb_label;
  Format.printf "  crude MC:  %d reps, %d events, estimate %a@."
    r.rb_crude_reps r.rb_crude_events Stats.Ci.pp r.rb_crude_ci;
  Format.printf "  splitting: %d levels x %d clones, %d trials, %d events, %a@."
    split.Sim.Splitting.levels split.Sim.Splitting.clones
    split.Sim.Splitting.total_trials split.Sim.Splitting.total_events
    Stats.Ci.pp split.Sim.Splitting.estimate.Stats.Splitting.ci;
  Format.printf
    "  work-normalized variance: crude %.3g, splitting %.3g (%.1fx reduction)@."
    wnv_crude wnv_split
    (wnv_crude /. wnv_split);
  r

(* Per-point wall clocks for the Figure 3 study: the six host
   distributions at 4 applications, run at a reduced replication count so
   even perf-only invocations populate the figures array with comparable
   numbers. *)
let fig3_point_times ~reps ~seed ~domains =
  List.map
    (fun (nd, nh) ->
      let params =
        {
          Itua.Params.default with
          Itua.Params.num_domains = nd;
          hosts_per_domain = nh;
          num_apps = 4;
        }
      in
      let h = Itua.Model.build params in
      let rewards =
        [
          Itua.Measures.unavailability h ~until:5.0;
          Itua.Measures.unreliability h ~until:5.0;
        ]
      in
      let spec =
        Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:5.0 rewards
      in
      let t0 = now () in
      ignore (Sim.Runner.run ~domains ~seed ~reps spec);
      (Printf.sprintf "fig3_point_%dx%d" nd nh, now () -. t0))
    [ (12, 1); (6, 2); (4, 3); (3, 4); (2, 6); (1, 12) ]

(* --- exact-lumping benchmark --- *)

(* Orbit-driven lumping on the 10x1 study shape: ten single-host
   domains, each a three-state attack cycle (clean -> compromised ->
   excluded -> clean), built from declarative IR so [Analysis.Orbit]
   can read every guard, rate, and effect. [rate_of] gives the per-copy
   compromise rate: a constant fleet yields one orbit of ten (the flat
   3^10 chain lumps ~900x); a heterogeneous fleet splits into partial
   orbits and the quotient is restricted accordingly (doc/ANALYSIS.md,
   A017/A018). *)
let lumping_model ~n ~rate_of =
  let b = San.Model.Builder.create "hosts" in
  let root = Compose.Ctx.root b "hosts" in
  let states =
    Compose.replicate root "domain" ~n (fun ctx i ->
        let module E = San.Effect in
        let s = Compose.Ctx.int_place ctx "state" in
        let step name rate from to_ =
          Compose.Ctx.timed_exp_rate_ir ctx ~name ~rate:(E.RConst rate)
            ~guard:(E.Cmp (E.Mark s, E.Eq, E.Int from))
            ~reads:[ San.Place.P s ]
            (E.Ops [ E.Set (s, E.Int to_) ])
        in
        step "compromise" (rate_of i) 0 1;
        step "exclude" 0.8 1 2;
        step "restore" 0.5 2 0;
        s)
  in
  (San.Model.Builder.build b, Compose.info root, states)

type lump_bench = {
  lu_label : string;
  lu_orbits : int;  (** orbit count of the (single) replicate family *)
  lu_full_states : int;
  lu_full_wall : float;
  lu_lumped_states : int;
  lu_lumped_wall : float;
  lu_measure_delta : float;
}

(* One lumping run: orbit analysis, unlumped vs orbit-quotient
   exploration ([~audit:true] cross-checks the canon's soundness on
   every merged state), and the symmetric measure E[excluded at t=5]
   compared between the two chains. *)
let run_lumping_case ~label ~n ~rate_of () =
  let model, info, states = lumping_model ~n ~rate_of in
  let rep = Analysis.Orbit.analyse model info in
  let orbits =
    List.fold_left
      (fun acc f -> acc + List.length f.Analysis.Orbit.fa_orbits)
      0 rep.Analysis.Orbit.families
  in
  let excluded m =
    Array.fold_left
      (fun acc s -> if San.Marking.get m s = 2 then acc +. 1.0 else acc)
      0.0 states
  in
  let t0 = now () in
  let full = Ctmc.Explore.explore model in
  let full_at5 = Ctmc.Measure.instant full ~at:5.0 excluded in
  let full_wall = now () -. t0 in
  let t0 = now () in
  let lumped =
    Ctmc.Explore.explore ~canon:(Analysis.Orbit.canon rep) ~audit:true model
  in
  let lumped_at5 = Ctmc.Measure.instant lumped ~at:5.0 excluded in
  let lumped_wall = now () -. t0 in
  let r =
    {
      lu_label = label;
      lu_orbits = orbits;
      lu_full_states = Ctmc.Explore.n_states full;
      lu_full_wall = full_wall;
      lu_lumped_states = Ctmc.Explore.n_states lumped;
      lu_lumped_wall = lumped_wall;
      lu_measure_delta = Float.abs (full_at5 -. lumped_at5);
    }
  in
  Format.printf "@.CTMC lumping (%s):@." r.lu_label;
  Format.printf "  orbits:   %d over %d copies@." r.lu_orbits n;
  Format.printf "  unlumped: %d states, explore+solve %.2fs@." r.lu_full_states
    r.lu_full_wall;
  Format.printf "  lumped:   %d states, explore+solve %.2fs@."
    r.lu_lumped_states r.lu_lumped_wall;
  Format.printf "  E[excluded hosts at t=5] differs by %.3g@."
    r.lu_measure_delta;
  r

let run_lumping () =
  run_lumping_case ~label:"10x1 hosts, 3-state attack cycle" ~n:10
    ~rate_of:(fun _ -> 0.3)
    ()

(* The heterogeneous acceptance case: the [Itua.Study.hetero_fleet_params]
   fleet shape — ten hosts, five at the baseline compromise rate and five
   "soft" ones at 2.5x. Full-family symmetry is broken; the orbit pass
   must find the two partial orbits of five and still lump 3^10 = 59049
   states down to 21^2 = 441 (>=10x, gated below) with the measure exact
   to solver accuracy. *)
let run_lumping_hetero () =
  let p = Itua.Study.hetero_fleet_params () in
  let mult = p.Itua.Params.host_rate_multipliers in
  run_lumping_case
    ~label:"10x1 hosts, heterogeneous: 5 baseline + 5 soft (2.5x)"
    ~n:(Array.length mult)
    ~rate_of:(fun i -> 0.3 *. mult.(i))
    ()

(* --- BENCH_sim.json --- *)

let json_escape s = Printf.sprintf "%S" s

(* A non-finite float would render as "nan"/"inf" — not JSON. Emit null
   instead so the record always parses. *)
let json_num (fmt : (float -> string, unit, string) format) v =
  if Float.is_finite v then Printf.sprintf fmt v else "null"

let write_bench_json ~reps ~micro ~throughput ~rare ~lumping ~lumping_hetero
    ~figures =
  let buf = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let add_list xs render =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ",\n";
        render x)
      xs
  in
  addf "{\n";
  addf "  \"schema\": \"itua-bench/1\",\n";
  addf "  \"generated_unix\": %.0f,\n" (Unix.time ());
  addf "  \"reps_per_point\": %d,\n" reps;
  addf "  \"micro_benchmarks\": [\n";
  add_list micro (fun (name, ns) ->
      addf "    { \"name\": %s, \"ns_per_run\": %s }" (json_escape name)
        (json_num "%.1f" ns));
  addf "\n  ],\n";
  addf "  \"engine_throughput\": [\n";
  add_list throughput (fun (name, (m : Sim.Metrics.t), snapshot) ->
      addf
        "    { \"name\": %s, \"runs\": %d, \"events\": %d, \"wall_seconds\": \
         %.4f, \"events_per_sec\": %s, \"stale_pop_fraction\": %s, \
         \"mean_heap_depth\": %s, \"metrics\": %s }"
        (json_escape name) m.Sim.Metrics.runs m.Sim.Metrics.events
        m.Sim.Metrics.wall_seconds
        (json_num "%.1f" (Sim.Metrics.events_per_sec m))
        (json_num "%.4f" (Sim.Metrics.stale_fraction m))
        (json_num "%.2f" (Sim.Metrics.mean_heap_depth m))
        snapshot);
  addf "\n  ],\n";
  (match rare with
  | None -> ()
  | Some r ->
      let e = r.rb_split.Sim.Splitting.estimate in
      addf "  \"rare_event\": {\n";
      addf "    \"config\": %s,\n" (json_escape r.rb_label);
      addf
        "    \"crude\": { \"reps\": %d, \"events\": %d, \"wall_seconds\": \
         %.2f, \"estimate\": %.6g, \"ci_half_width\": %.3g },\n"
        r.rb_crude_reps r.rb_crude_events r.rb_crude_wall
        r.rb_crude_ci.Stats.Ci.mean r.rb_crude_ci.Stats.Ci.half_width;
      addf
        "    \"splitting\": { \"levels\": %d, \"clones\": %d, \"trials\": \
         %d, \"events\": %d, \"wall_seconds\": %.2f, \"probability\": %.6g, \
         \"ci_half_width\": %.3g },\n"
        r.rb_split.Sim.Splitting.levels r.rb_split.Sim.Splitting.clones
        r.rb_split.Sim.Splitting.total_trials
        r.rb_split.Sim.Splitting.total_events r.rb_split_wall
        e.Stats.Splitting.probability e.Stats.Splitting.ci.Stats.Ci.half_width;
      addf
        "    \"work_normalized_variance\": { \"crude\": %.4g, \"splitting\": \
         %.4g, \"reduction\": %s }\n"
        r.rb_wnv_crude r.rb_wnv_split
        (json_num "%.1f" (r.rb_wnv_crude /. r.rb_wnv_split));
      addf "  },\n");
  let lump_record key l =
    addf "  %s: {\n" (json_escape key);
    addf "    \"config\": %s,\n" (json_escape l.lu_label);
    addf "    \"orbits\": %d,\n" l.lu_orbits;
    addf "    \"unlumped\": { \"states\": %d, \"wall_seconds\": %.4f },\n"
      l.lu_full_states l.lu_full_wall;
    addf "    \"lumped\": { \"states\": %d, \"wall_seconds\": %.4f },\n"
      l.lu_lumped_states l.lu_lumped_wall;
    addf "    \"state_reduction\": %.1f,\n"
      (float_of_int l.lu_full_states /. float_of_int l.lu_lumped_states);
    addf "    \"measure_delta\": %.3g\n" l.lu_measure_delta;
    addf "  },\n"
  in
  Option.iter (lump_record "ctmc_lumping") lumping;
  Option.iter (lump_record "ctmc_lumping_hetero") lumping_hetero;
  addf "  \"figures\": [\n";
  add_list figures (fun (id, wall) ->
      addf "    { \"id\": %s, \"wall_seconds\": %.2f }" (json_escape id) wall);
  addf "\n  ]\n";
  addf "}\n";
  let oc = open_out "BENCH_sim.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Format.printf "@.[perf record: BENCH_sim.json]@."

(* --- main --- *)

let usage () =
  print_endline
    "usage: main.exe \
     [fig3|fig4|fig5|fig3a..fig5d|all|sens|ablate|traj|perf|rare]...\n\
     default: all figures followed by perf (which includes rare)";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cfg = config () in
  Format.printf
    "ITUA reproduction harness: %d replications per point, seed %Ld, %d \
     domains@."
    cfg.Itua.Study.reps cfg.Itua.Study.seed cfg.Itua.Study.domains;
  let known_panels =
    [ "fig3a"; "fig3b"; "fig3c"; "fig3d"; "fig4a"; "fig4b"; "fig4c"; "fig4d";
      "fig5a"; "fig5b"; "fig5c"; "fig5d" ]
  in
  let valid =
    [ "all"; "perf"; "rare"; "fig3"; "fig4"; "fig5"; "sens"; "ablate"; "traj" ]
    @ known_panels
  in
  List.iter (fun a -> if not (List.mem a valid) then usage ()) args;
  let args = if args = [] then [ "all"; "perf" ] else args in
  let wants_figure fig = List.exists (fun a ->
      a = "all" || a = fig
      || (String.length a > 4 && String.sub a 0 4 = fig)) args
  in
  let figure_times = ref [] in
  let timed id f =
    let t0 = now () in
    let r = f () in
    figure_times := !figure_times @ [ (id, now () -. t0) ];
    r
  in
  let panels = ref [] in
  if wants_figure "fig3" then
    panels := !panels @ timed "fig3" (Itua.Study.fig3 ~config:cfg);
  if wants_figure "fig4" then
    panels := !panels @ timed "fig4" (Itua.Study.fig4 ~config:cfg);
  if wants_figure "fig5" then
    panels := !panels @ timed "fig5" (Itua.Study.fig5 ~config:cfg);
  let selected =
    List.filter
      (fun (id, _) ->
        List.exists
          (fun a -> a = "all" || a = id || a = String.sub id 0 4)
          args)
      !panels
  in
  if selected <> [] then print_panels selected;
  if List.mem "sens" args then
    print_panels (timed "sens" (Itua.Study.sensitivity ~config:cfg));
  if List.mem "traj" args then
    print_panels (timed "traj" (Itua.Study.trajectory ~config:cfg));
  if List.mem "ablate" args then
    print_panels (timed "ablate" (Itua.Study.ablation ~config:cfg));
  (* The perf record is the whole point of BENCH_sim.json: run the
     micro-benchmarks and throughput sweep on EVERY invocation, whatever
     figures were asked for, so the committed record can never regress
     to empty arrays (the CI gate rejects such a record). *)
  let micro = run_perf () in
  let throughput = run_throughput () in
  if List.mem "rare" args then
    print_panels (timed "fig4b_rare" (Itua.Study.fig4b_rare ~config:cfg));
  let rare =
    if List.mem "perf" args || List.mem "rare" args then
      Some (timed "rare_tail" (run_rare ~cfg))
    else None
  in
  let wants_lumping = List.mem "perf" args || List.mem "rare" args in
  let lumping =
    if wants_lumping then Some (timed "ctmc_lumping" run_lumping) else None
  in
  let lumping_hetero =
    if wants_lumping then Some (timed "ctmc_lumping_hetero" run_lumping_hetero)
    else None
  in
  let point_reps = Int.min cfg.Itua.Study.reps 200 in
  let fig3_points =
    fig3_point_times ~reps:point_reps ~seed:cfg.Itua.Study.seed
      ~domains:cfg.Itua.Study.domains
  in
  write_bench_json ~reps:cfg.Itua.Study.reps ~micro ~throughput ~rare
    ~lumping ~lumping_hetero ~figures:(!figure_times @ fig3_points);
  (* Record-completeness gate: an empty micro-benchmark or throughput
     array means the record is useless as a perf baseline. *)
  if micro = [] || throughput = [] then begin
    Format.eprintf
      "bench record gate FAILED: %d micro-benchmark and %d throughput \
       records (both must be non-empty)@."
      (List.length micro) (List.length throughput);
    exit 1
  end;
  (* Regression gate: splitting must beat crude MC by >=10x on the tail
     (doc/RARE_EVENTS.md). Counts are seed-deterministic, so this is a
     stable check, evaluated after the record is written. *)
  (match rare with
  | Some r when not (r.rb_wnv_crude >= 10.0 *. r.rb_wnv_split) ->
      Format.eprintf
        "rare-event gate FAILED: work-normalized variance reduction %.1fx < \
         10x@."
        (r.rb_wnv_crude /. r.rb_wnv_split);
      exit 1
  | _ -> ());
  (* Lumping gates: the orbit quotient must shrink the state space and
     leave the symmetric measure unchanged to solver accuracy
     (doc/ANALYSIS.md). Homogeneous 10x1 lumps to the full multiset
     quotient (3^10 = 59049 -> 66); the heterogeneous 5+5 fleet must
     still find its two partial orbits and shrink >=10x (21^2 = 441). *)
  (match lumping with
  | Some l
    when l.lu_full_states <> 59049 || l.lu_lumped_states <> 66
         || l.lu_orbits <> 1
         || not (l.lu_measure_delta <= 1e-9) ->
      Format.eprintf
        "ctmc-lumping gate FAILED: %d orbit(s), %d lumped vs %d full states \
         (want 1 orbit, 66 vs 59049), measure delta %.3g@."
        l.lu_orbits l.lu_lumped_states l.lu_full_states l.lu_measure_delta;
      exit 1
  | _ -> ());
  match lumping_hetero with
  | Some l
    when l.lu_orbits <> 2
         || float_of_int l.lu_full_states
            < 10.0 *. float_of_int l.lu_lumped_states
         || not (l.lu_measure_delta <= 1e-9) ->
      Format.eprintf
        "ctmc-lumping-hetero gate FAILED: %d orbit(s) (want 2 partial \
         orbits), %d lumped vs %d full states (want >=10x reduction), \
         measure delta %.3g@."
        l.lu_orbits l.lu_lumped_states l.lu_full_states l.lu_measure_delta;
      exit 1
  | _ -> ()
