type better = Lower | Higher
type spec = { name : string; unit_ : string; better : better }

let m better unit_ name = { name; unit_; better }
let lower = m Lower
let higher = m Higher

let end_to_end =
  [ lower "s" "wall_s"; lower "s" "setup_s"; lower "MB" "peak_rss_mb" ]

let span_layers =
  [
    ("itua", "span.itua_share");
    ("san", "span.san_share");
    ("sim.runner", "span.sim_runner_share");
    ("sim.splitting", "span.sim_splitting_share");
    ("ctmc", "span.ctmc_share");
    ("analysis", "span.analysis_share");
    ("report", "span.report_share");
  ]

let per_layer =
  [
    lower "s" "itua.build_s";
    lower "us" "itua.build_us_per_activity";
    lower "count" "itua.places";
    lower "count" "itua.activities";
    lower "us" "executor.setup_us_per_run";
    lower "ratio" "executor.setup_share";
    lower "ns" "executor.loop_ns_per_event";
    lower "count" "executor.events_per_run";
    lower "ratio" "executor.stale_pop_fraction";
    lower "ratio" "executor.pops_per_event";
    lower "ratio" "executor.chain_steps_per_event";
    lower "ratio" "executor.samples_per_event";
    lower "us" "executor.run_us_p50";
    lower "us" "executor.run_us_p99";
    higher "count" "executor.runs";
    lower "words" "executor.alloc_words_per_run";
    lower "ratio" "executor.phase.stabilize_share";
    lower "ratio" "executor.phase.propagate_share";
    lower "ratio" "executor.phase.sample_share";
    lower "ratio" "executor.phase.heap_share";
    lower "ns" "executor.two_state_ns_per_event";
    lower "us" "runner.us_per_rep";
    lower "us" "reward.us_per_rep";
    higher "x" "runner.speedup_2d";
    lower "count" "splitting.trials";
    lower "count" "splitting.events";
    lower "us" "splitting.us_per_trial";
    lower "ratio" "splitting.checkpoint_share";
    higher "x" "splitting.speedup_2d";
    lower "us" "crude.us_per_rep";
    lower "s" "ctmc.explore_s";
    lower "count" "ctmc.states";
    lower "count" "ctmc.transitions";
    higher "1/s" "ctmc.states_per_s";
    lower "words" "ctmc.alloc_words_per_state";
    lower "s" "ctmc.solve_s";
    lower "s" "ctmc.lumped_explore_s";
    higher "x" "ctmc.lump_ratio";
    lower "s" "analysis.space_s";
    lower "count" "analysis.space_markings";
    lower "ratio" "analysis.space_exhaustive_share";
    lower "s" "analysis.gather_s";
    lower "s" "analysis.passes_s";
    lower "s" "analysis.orbit_s";
    lower "s" "analysis.structure_s";
    lower "words" "analysis.structure_alloc_words";
    lower "words/pass" "gc.minor_words";
    lower "1/pass" "gc.minor_collections";
    lower "1/pass" "gc.major_collections";
    lower "ratio" "obs.trace_overhead";
    lower "s" "obs.calibration_s";
  ]
  @ List.map (fun (_, name) -> lower "ratio" name) span_layers
  @ [ lower "ratio" "span.harness_share"; higher "ratio" "span.coverage" ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let complete specs values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun s -> s.name = name) specs) then
        failwith ("metric not declared: " ^ name))
    values;
  List.map
    (fun s ->
      match List.assoc_opt s.name values with
      | Some v -> (s, v)
      | None -> failwith ("metric not measured: " ^ s.name))
    specs
