(* itua-sim: command-line interface to the ITUA reproduction.

   Subcommands:
     run        simulate one configuration and print the measures
     rare       sharp tail estimates by RESTART/importance splitting
     explain    render forensics chains from a --record-failures file
     study      regenerate the paper's figures and side studies (tables + CSV)
     structure  show the composed-model structure, optionally DOT export
     check      run every model-checking pass
     mtta       exact CTMC analysis of the minimal configuration
     save       export the model as a versioned itua-model/2 JSON file
     load       validate a model file and report on it
     diff       structural diff between two model files

   run/rare/check/mtta accept --model FILE to operate on a saved model
   instead of building one in-process; see doc/FORMAT.md. *)

open Cmdliner

(* --- shared parameter flags --- *)

let domains_arg =
  Arg.(value & opt int 10 & info [ "domains" ] ~docv:"N"
         ~doc:"Number of security domains.")

let hosts_arg =
  Arg.(value & opt int 3 & info [ "hosts-per-domain" ] ~docv:"N"
         ~doc:"Hosts in each security domain.")

let apps_arg =
  Arg.(value & opt int 4 & info [ "apps" ] ~docv:"N"
         ~doc:"Number of replicated applications.")

let reps_per_app_arg =
  Arg.(value & opt int 7 & info [ "replicas" ] ~docv:"N"
         ~doc:"Replicas per application.")

let policy_arg =
  let policy_conv =
    Arg.enum
      [ ("domain", Itua.Params.Domain_exclusion);
        ("host", Itua.Params.Host_exclusion) ]
  in
  Arg.(value & opt policy_conv Itua.Params.Domain_exclusion
       & info [ "policy" ] ~docv:"domain|host"
           ~doc:"Exclusion policy on detection of a corruption.")

let multiplier_arg =
  Arg.(value & opt float 2.0 & info [ "multiplier" ] ~docv:"M"
         ~doc:"Vulnerability multiplier for replicas/managers on corrupt \
               hosts.")

let spread_arg =
  Arg.(value & opt float 1.0 & info [ "spread" ] ~docv:"RATE"
         ~doc:"Within-domain attack spread rate (and spread effect).")

let scale_arg =
  Arg.(value & opt float 0.4 & info [ "rate-scale" ] ~docv:"S"
         ~doc:"Calibration factor on the derived per-entity rates; 1.0 is \
               the literal reading of the paper's cumulative rates.")

let horizon_arg =
  Arg.(value & opt float 10.0 & info [ "horizon" ] ~docv:"HOURS"
         ~doc:"Length of the observed interval.")

let n_reps_arg =
  Arg.(value & opt int 2000 & info [ "reps" ] ~docv:"N"
         ~doc:"Independent simulation replications.")

let seed_arg =
  Arg.(value & opt int64 20030622L & info [ "seed" ] ~docv:"SEED"
         ~doc:"Random seed; replication i always uses substream i.")

let cores_arg =
  Arg.(value & opt int (Sim.Runner.default_domains ())
       & info [ "cores" ] ~docv:"N"
           ~doc:"OCaml domains used to parallelize replications.")

let params_of domains hosts apps replicas policy multiplier spread scale () =
  let p =
    {
      Itua.Params.default with
      Itua.Params.num_domains = domains;
      hosts_per_domain = hosts;
      num_apps = apps;
      num_reps = replicas;
      policy;
      corruption_multiplier = multiplier;
      spread_rate_domain = spread;
      spread_effect_domain = spread;
      rate_scale = scale;
    }
  in
  match Itua.Params.validate p with
  | Ok () -> p
  | Error msg ->
      Format.eprintf "invalid parameters: %s@." msg;
      exit 2

(* The eight topology and rate flags as one parameter set. The value is
   a thunk: the command forces it after its own flag checks, so the
   order of error messages is the command's, and validation (exit 2 on
   an invalid combination) never runs under --model. *)
let params_term =
  Term.(
    const params_of $ domains_arg $ hosts_arg $ apps_arg $ reps_per_app_arg
    $ policy_arg $ multiplier_arg $ spread_arg $ scale_arg)

(* --- model files (save / load / diff / --model) --- *)

let model_arg =
  Arg.(value & opt (some file) None & info [ "model" ] ~docv:"FILE"
         ~doc:"Operate on the itua-model/2 file $(docv) (written by \
               $(b,itua-sim save)) instead of building the model \
               in-process. The file must carry the \"params\" annotation; \
               the topology and rate flags are ignored in its favor.")

(* Load a model file, recover its parameter block from the "params"
   annotation, and rebind the ITUA handles: [Itua.Model.rebind] builds
   the model from those parameters and checks the file's places against
   it — the reloaded model then flows through the executor, the
   measures, the checker, and the splitting estimator exactly like a
   built one. *)
let handles_of_file path =
  let ( let* ) = Result.bind in
  let* l = Serial.load path in
  let* composition =
    match l.Serial.composition with
    | Some c -> Ok c
    | None -> Error (path ^ ": file embeds no composition tree")
  in
  let* params_json =
    match List.assoc_opt "params" l.Serial.annotations with
    | Some j -> Ok j
    | None -> Error (path ^ ": file carries no \"params\" annotation")
  in
  let* p =
    Result.map_error (fun e -> path ^ ": " ^ e)
      (Itua.Params.of_json ~at:"$.annotations.params" params_json)
  in
  match Itua.Model.rebind p ~model:l.Serial.model ~composition with
  | h -> Ok (p, h)
  | exception Invalid_argument msg -> Error (path ^ ": " ^ msg)

(* The parameters and handles a command works on: built from [params]
   (a [params_term]), or loaded from --model FILE. Forced by the
   command, like [params_term]. *)
let config_of params =
  let config params model () =
    match model with
    | None ->
        let p = params () in
        Ok (p, Itua.Model.build p)
    | Some path -> handles_of_file path
  in
  Term.(const config $ params $ model_arg)

let config_term = config_of params_term

(* [check] and [mtta] report an unusable model file on stderr and exit
   2, like an invalid flag combination. *)
let handles_or_exit config =
  match config () with
  | Ok (_, h) -> h
  | Error e ->
      Format.eprintf "%s@." e;
      exit 2

(* --- run --- *)

let telemetry_arg =
  Arg.(value & flag & info [ "telemetry" ]
         ~doc:"Collect engine telemetry and phase profiles during the run \
               and print the metrics snapshot afterwards as a table: \
               engine counters, per-activity firings, cancellations and \
               resamples, phase self-times and GC totals.")

let record_arg =
  Arg.(value & opt (some string) None
       & info [ "record-failures" ] ~docv:"FILE"
           ~doc:"Record every replication and retain the trajectories of up \
                 to K failing runs (some application improper — the \
                 unreliability event) and K non-failing runs, written to \
                 $(docv) as JSONL together with per-place occupancy \
                 statistics. Render with $(b,itua-sim explain).")

let record_max_arg =
  Arg.(value & opt (some int) None & info [ "record-max" ] ~docv:"K"
         ~doc:"Retain at most $(docv) trajectories per class (default 10; \
               requires $(b,--record-failures)).")

let dot_heat_arg =
  Arg.(value & opt (some string) None & info [ "dot-heat" ] ~docv:"FILE"
         ~doc:"After the run, write a GraphViz rendering of the model to \
               $(docv) with activities weighted by their firing counts \
               (hot activities thick, never-fired activities grey).")

let progress_arg =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"Report live progress on stderr while replications run: \
               completed count, elapsed time, ETA, and the widest current \
               confidence interval. With $(b,--metrics-out), also rewrite \
               the snapshot at every progress report, so a long run can be \
               watched live.")

let precision_arg =
  Arg.(value & opt (some float) None & info [ "rel-precision" ] ~docv:"P"
         ~doc:"Run replications in batches until every measure's relative \
               confidence-interval half-width is at most $(docv) (Möbius \
               sequential stopping), instead of a fixed replication count; \
               --reps then bounds the total.")

(* --- observability sinks (run / rare / mtta) --- *)

let metrics_out_arg =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write an itua-metrics/1 JSON snapshot (engine counters, \
               phase self-times, GC statistics, convergence trajectories) \
               to $(docv) after the run. Enables phase profiling.")

let trace_spans_arg =
  Arg.(value & opt (some string) None & info [ "trace-spans" ] ~docv:"FILE"
         ~doc:"Record every profiled phase interval and write Chrome \
               trace-event JSON lines to $(docv) (open in Perfetto or \
               chrome://tracing).")

(* The one registry behind every view of a run: the engine sinks
   exported into [into] (default a fresh registry). Export accumulates,
   so each snapshot of live sinks needs a fresh registry. *)
let registry ?(into = Obs.Registry.create ()) ?metrics ?profile () =
  Option.iter (fun m -> Sim.Metrics.export m ~into) metrics;
  Option.iter (fun p -> Obs.Profile.export p ~into) profile;
  into

(* The one itua-metrics/1 writer behind run, rare and mtta, with the
   convergence block appended when a recorder is given. *)
let write_snapshot ?convergence path reg =
  let extra =
    Option.to_list
      (Option.map (fun c -> ("convergence", Obs.Convergence.to_json c))
         convergence)
  in
  Obs.Registry.write ~extra path reg

(* One-line stderr progress display, overwritten in place. *)
let render_progress (p : Sim.Runner.progress) =
  let eta =
    match p.Sim.Runner.eta with
    | Some s when Float.is_finite s ->
        Printf.sprintf "  ETA %.0fs" (Float.max 0.0 s)
    | Some _ | None -> ""
  in
  let worst =
    if Float.is_finite p.Sim.Runner.worst_rel_hw then
      Printf.sprintf "  worst CI half-width %.3g (rel.)"
        p.Sim.Runner.worst_rel_hw
    else ""
  in
  Printf.eprintf "\r%6d/%d reps  %6.1fs elapsed%s%s   %!"
    p.Sim.Runner.completed p.Sim.Runner.target p.Sim.Runner.elapsed eta worst

let finish_progress () = Printf.eprintf "\n%!"

let policy_string = function
  | Itua.Params.Domain_exclusion -> "domain"
  | Itua.Params.Host_exclusion -> "host"

(* The "params" object shared by the run --record-failures header and
   the rare --json file. *)
let params_json (p : Itua.Params.t) =
  let module J = Report.Json in
  J.Obj
    [
      ("num_domains", J.int p.num_domains);
      ("hosts_per_domain", J.int p.hosts_per_domain);
      ("num_apps", J.int p.num_apps);
      ("num_reps", J.int p.num_reps);
      ("policy", J.Str (policy_string p.policy));
      ("corruption_multiplier", J.Num p.corruption_multiplier);
      ("spread", J.Num p.spread_rate_domain);
      ("rate_scale", J.Num p.rate_scale);
    ]

let run_cmd =
  let run config horizon reps seed cores telemetry progress rel_precision
      record_failures record_max dot_heat metrics_out trace_spans =
    let ( let* ) = Result.bind in
    let check cond msg = if cond then Ok () else Error (`Msg msg) in
    let* () = check (cores >= 1) "--cores must be >= 1" in
    let* () =
      check
        (match rel_precision with Some p -> p > 0.0 | None -> true)
        "--rel-precision must be > 0"
    in
    let* () =
      check
        (record_max = None || record_failures <> None)
        "--record-max requires --record-failures"
    in
    let* () =
      check
        (match record_max with Some k -> k > 0 | None -> true)
        "--record-max must be >= 1"
    in
    let* p, h = Result.map_error (fun e -> `Msg e) (config ()) in
    Format.printf "%a@.@." Itua.Params.pp p;
    let spec =
      Sim.Runner.spec ~model:h.Itua.Model.model ~horizon
        [
          Itua.Measures.unavailability h ~until:horizon;
          Itua.Measures.unreliability h ~until:horizon;
          Itua.Measures.fraction_corrupt_in_excluded h;
          Itua.Measures.fraction_domains_excluded h ~at:horizon;
          Itua.Measures.replicas_running h ~at:horizon;
          Itua.Measures.load_per_host h ~at:horizon;
        ]
    in
    let metrics =
      if telemetry || dot_heat <> None || metrics_out <> None then
        Some (Sim.Metrics.create ~model:h.Itua.Model.model)
      else None
    in
    let profile =
      if telemetry || metrics_out <> None || trace_spans <> None then
        Some (Obs.Profile.create ~spans:(trace_spans <> None) ())
      else None
    in
    let convergence =
      Option.map (fun _ -> Obs.Convergence.create ()) metrics_out
    in
    let record =
      match record_failures with
      | None -> None
      | Some _ ->
          Some
            (Sim.Trajectory.sink
               ~k:(Option.value record_max ~default:10)
               ~predicate:(Itua.Forensics.failed_now h)
               ~model:h.Itua.Model.model ())
    in
    (* Every progress report has already merged the per-domain sinks, so
       the snapshot rewritten there is the current merged state. *)
    let progress_cb =
      if not progress then None
      else
        Some
          (fun p ->
            render_progress p;
            Option.iter
              (fun path ->
                write_snapshot ?convergence path
                  (registry ?metrics ?profile ()))
              metrics_out)
    in
    let results =
      match rel_precision with
      | None ->
          Sim.Runner.run ~domains:cores ?metrics ?profile ?convergence
            ?progress:progress_cb ?record ~seed ~reps spec
      | Some prec ->
          Sim.Runner.run_until ~domains:cores ?metrics ?profile ?convergence
            ?progress:progress_cb ?record ~batch:(Int.min reps 500)
            ~max_reps:reps ~rel_precision:prec ~seed spec
    in
    if progress then finish_progress ();
    let n_runs = (List.hd results).Sim.Runner.n_runs in
    (match rel_precision with
    | None ->
        Format.printf "Measures over [0, %g] hours (%d replications):@."
          horizon reps
    | Some prec ->
        Format.printf
          "Measures over [0, %g] hours (%d replications, sequential stopping \
           at %g relative precision):@."
          horizon n_runs prec);
    List.iter
      (fun (r : Sim.Runner.result) ->
        Format.printf "  %-34s %a  (defined %d/%d)@." r.name Stats.Ci.pp r.ci
          r.n_defined r.n_runs)
      results;
    (match (dot_heat, metrics) with
    | Some path, Some m ->
        let firings =
          Array.to_list
            (Array.map2
               (fun n c -> (n, c))
               m.Sim.Metrics.names m.Sim.Metrics.firings)
        in
        San.Dot.write_file ~firings path h.Itua.Model.model;
        Format.printf "@.[dot heat graph: %s]@." path
    | _ -> ());
    (match (record_failures, record) with
    | Some path, Some sink ->
        let module T = Sim.Trajectory in
        let module J = Report.Json in
        let occupancy =
          List.filter (fun (s : T.place_stats) -> s.hit_runs > 0)
            (T.occupancy sink)
        in
        let header =
          J.Obj
            [
              ("schema", J.Str "itua-trajectories/1");
              ("seed", J.Str (Int64.to_string seed));
              ("reps", J.int (T.runs sink));
              ("matched_runs", J.int (T.matched_runs sink));
              ("record_max", J.int (Option.value record_max ~default:10));
              ("horizon", J.Num horizon);
              ("params", params_json p);
              ("occupancy", T.occupancy_to_json occupancy);
            ]
        in
        Report.write_jsonl path
          (header :: List.map T.to_json (T.retained sink));
        Format.printf
          "@.[trajectories: %s — retained %d failing + %d other; %d of %d \
           runs hit the failure predicate]@."
          path
          (List.length (T.matching sink))
          (List.length (T.non_matching sink))
          (T.matched_runs sink) (T.runs sink)
    | _ -> ());
    let reg = registry ?metrics ?profile () in
    Option.iter
      (fun path ->
        write_snapshot ?convergence path reg;
        Format.printf "@.[metrics snapshot: %s]@." path)
      metrics_out;
    (match (trace_spans, profile) with
    | Some path, Some prof ->
        Obs.Profile.write_trace path prof;
        Format.printf "[trace spans: %s]@." path
    | _ -> ());
    if telemetry then Format.printf "@.Telemetry:@.%a" Obs.Registry.pp reg;
    Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one ITUA configuration")
    Term.(
      term_result
        (const run $ config_term $ horizon_arg $ n_reps_arg $ seed_arg
        $ cores_arg $ telemetry_arg $ progress_arg $ precision_arg
        $ record_arg $ record_max_arg $ dot_heat_arg $ metrics_out_arg
        $ trace_spans_arg))

(* --- rare --- *)

let rare_cmd =
  let levels_arg =
    Arg.(value & opt int Itua.Rare.default_levels
         & info [ "levels" ] ~docv:"L"
             ~doc:"Importance levels between the initial marking and the \
                   failure event; more levels mean easier per-stage \
                   crossings but more stages.")
  in
  let clones_arg =
    Arg.(value & opt int 4 & info [ "clones" ] ~docv:"C"
           ~doc:"Clones launched per level crossing. Aim for C ≈ 1/p̂ of a \
                 typical stage; much larger values make the trial \
                 population explode.")
  in
  let initial_arg =
    Arg.(value & opt int 2000 & info [ "initial" ] ~docv:"N"
           ~doc:"Replications launched at level 0.")
  in
  let measure_arg =
    Arg.(value
         & opt (enum
             [ ("unreliability", Itua.Study.Unreliability);
               ("unavailability", Itua.Study.Unavailability) ])
             Itua.Study.Unreliability
         & info [ "measure" ] ~docv:"unreliability|unavailability"
             ~doc:"Failure event to estimate the tail probability of: ever \
                   improper, or ever improper-or-starved.")
  in
  let app_arg =
    Arg.(value & opt int 0 & info [ "app" ] ~docv:"A"
           ~doc:"Application whose failure is targeted. By exchangeability \
                 over applications the result matches the study panels' \
                 per-app average.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the machine-readable estimate (stage counts, CI, \
                 work) to $(docv).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Write the per-stage table (level, trials, hits, ratio) to \
                 $(docv) as CSV.")
  in
  let run config horizon seed cores levels clones initial measure app json
      csv metrics_out =
    let ( let* ) = Result.bind in
    let check cond msg = if cond then Ok () else Error (`Msg msg) in
    let* () = check (cores >= 1) "--cores must be >= 1" in
    let* () = check (levels >= 1) "--levels must be >= 1" in
    let* () = check (clones >= 1) "--clones must be >= 1" in
    let* () = check (initial >= 2) "--initial must be >= 2" in
    let* p, handles = Result.map_error (fun e -> `Msg e) (config ()) in
    let* () =
      check
        (app >= 0 && app < p.Itua.Params.num_apps)
        "--app must name an application"
    in
    Format.printf "%a@.@." Itua.Params.pp p;
    let study = { Itua.Study.reps = initial; seed; domains = cores } in
    let r =
      try
        Ok
          (Itua.Study.rare_point ~config:study ~levels ~clones ~initial ~measure
             ~app ~handles ~params:p ~until:horizon ())
      with Invalid_argument msg -> Error (`Msg msg)
    in
    let* r = r in
    let est = r.Sim.Splitting.estimate in
    let measure_name =
      match measure with
      | Itua.Study.Unreliability -> "improper"
      | Itua.Study.Unavailability -> "improper or starved"
    in
    Format.printf
      "Splitting estimate of P(app %d ever %s in [0, %g]) — %d levels, %d \
       clones per crossing:@."
      app measure_name horizon levels clones;
    Format.printf "  %-12s %8s %8s %8s@." "stage" "trials" "hits" "ratio";
    Array.iteri
      (fun k (s : Stats.Splitting.stage) ->
        Format.printf "  %2d -> %-6d %8d %8d %8.4f@." k (k + 1) s.trials
          s.hits
          (float_of_int s.hits /. float_of_int s.trials))
      est.Stats.Splitting.stages;
    Format.printf "  estimate: %a@." Stats.Ci.pp est.Stats.Splitting.ci;
    Format.printf "  work: %d activity firings over %d trials@."
      r.Sim.Splitting.total_events r.Sim.Splitting.total_trials;
    (match csv with
    | None -> ()
    | Some path ->
        Report.write_csv_rows path
          ~header:[ "level"; "trials"; "hits"; "ratio" ]
          (Array.to_list
             (Array.mapi
                (fun k (s : Stats.Splitting.stage) ->
                  [
                    string_of_int (k + 1);
                    string_of_int s.trials;
                    string_of_int s.hits;
                    Printf.sprintf "%.6f"
                      (float_of_int s.hits /. float_of_int s.trials);
                  ])
                est.Stats.Splitting.stages));
        Format.printf "  [stage csv: %s]@." path);
    (match json with
    | None -> ()
    | Some path ->
        let module J = Report.Json in
        let stages =
          J.Arr
            (Array.to_list
               (Array.mapi
                  (fun k (s : Stats.Splitting.stage) ->
                    J.Obj
                      [
                        ("level", J.int (k + 1));
                        ("trials", J.int s.trials);
                        ("hits", J.int s.hits);
                      ])
                  est.Stats.Splitting.stages))
        in
        Report.write_jsonl path
          [
            J.Obj
              [
                ("schema", J.Str "itua-rare/1");
                ("measure", J.Str measure_name);
                ("app", J.int app);
                ("horizon", J.Num horizon);
                ("seed", J.Str (Int64.to_string seed));
                ("levels", J.int levels);
                ("clones", J.int clones);
                ("initial", J.int initial);
                ("params", params_json p);
                ("stages", stages);
                ("probability", J.Num est.Stats.Splitting.probability);
                ( "ci_half_width",
                  J.Num est.Stats.Splitting.ci.Stats.Ci.half_width );
                ("confidence", J.Num est.Stats.Splitting.ci.Stats.Ci.confidence);
                ("rel_variance", J.Num est.Stats.Splitting.rel_variance);
                ("total_trials", J.int r.Sim.Splitting.total_trials);
                ("total_events", J.int r.Sim.Splitting.total_events);
              ];
          ];
        Format.printf "  [json: %s]@." path);
    (match metrics_out with
    | None -> ()
    | Some path ->
        let convergence = Obs.Convergence.create () in
        let reg = Obs.Registry.create () in
        Sim.Splitting.export ~convergence r ~into:reg;
        write_snapshot ~convergence path reg;
        Format.printf "  [metrics snapshot: %s]@." path);
    Ok ()
  in
  Cmd.v
    (Cmd.info "rare"
       ~doc:"Estimate a failure tail probability sharply by \
             RESTART/importance splitting (see doc/RARE_EVENTS.md)")
    Term.(
      term_result
        (const run $ config_term $ horizon_arg $ seed_arg $ cores_arg
        $ levels_arg $ clones_arg $ initial_arg $ measure_arg $ app_arg
        $ json_arg $ csv_arg $ metrics_out_arg))

(* --- explain --- *)

let explain_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.jsonl"
             ~doc:"Trajectory file written by $(b,run --record-failures).")
  in
  let limit_arg =
    Arg.(value & opt int 20 & info [ "limit" ] ~docv:"N"
           ~doc:"Print at most $(docv) chains per class.")
  in
  let occ_limit_arg =
    Arg.(value & opt int 30 & info [ "occupancy-rows" ] ~docv:"N"
           ~doc:"Rows of the first-hit/occupancy table.")
  in
  let run file limit occ_limit =
    let ( let* ) = Result.bind in
    let module T = Sim.Trajectory in
    let* lines =
      Result.map_error (fun e -> `Msg e) (Report.read_jsonl_numbered file)
    in
    let located line =
      Result.map_error (fun e -> `Msg (Printf.sprintf "%s:%d: %s" file line e))
    in
    (* A first line with a [schema] field is the header; without one the
       file is headerless and every line is a trajectory. *)
    let* header, body =
      match lines with
      | [] -> Error (`Msg (file ^ ": empty file"))
      | (line, first) :: rest -> (
          let* h = located line (T.header_of_json first) in
          match h with
          | None -> Ok (None, lines)
          | Some h -> Ok (Some h, rest))
    in
    let* trajectories =
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (line, j) :: rest ->
            let* t = located line (T.of_json j) in
            go (t :: acc) rest
      in
      go [] body
    in
    let chains = List.map Itua.Forensics.chain_of_trajectory trajectories in
    let failing, other =
      List.partition (fun (c : Itua.Forensics.chain) -> c.matched) chains
    in
    let print_class label cs =
      if cs <> [] then begin
        Format.printf "@.%s (%d):@." label (List.length cs);
        List.iteri
          (fun i c ->
            if i < limit then Format.printf "  %a@." Itua.Forensics.pp_chain c)
          cs;
        if List.length cs > limit then
          Format.printf "  … %d more (raise --limit)@." (List.length cs - limit)
      end
    in
    print_class "Failing runs" failing;
    print_class "Non-failing runs" other;
    Format.printf "@.%a@." Itua.Forensics.pp_summary
      (Itua.Forensics.summarize chains);
    (match header with
    | None -> ()
    | Some (h : T.header) ->
        Format.printf
          "recorded from %d replications, %d hit the failure predicate@."
          h.reps h.matched_runs;
        (match h.occupancy with
        | None -> ()
        | Some occupancy ->
            (* Places that were zero after setup and became non-zero later
               are the event outcomes (intrusions, corruptions,
               exclusions); order by how often they were hit. *)
            let eventful =
              List.filter
                (fun (s : T.place_stats) ->
                  s.hit_runs > 0 && s.mean_first_hit > 0.0)
                occupancy
            in
            let sorted =
              List.sort
                (fun (a : T.place_stats) (b : T.place_stats) ->
                  match compare b.hit_runs a.hit_runs with
                  | 0 -> compare a.place b.place
                  | c -> c)
                eventful
            in
            Format.printf
              "@.First-hit / occupancy (places that became non-zero during \
               runs):@.";
            Format.printf "  %-52s %9s %7s %8s %14s@." "place" "hit-runs"
              "max" "mean" "mean 1st hit";
            List.iteri
              (fun i (s : T.place_stats) ->
                if i < occ_limit then
                  Format.printf "  %-52s %9d %7g %8.4f %13.2fh@." s.place
                    s.hit_runs s.max_tokens s.mean_tokens s.mean_first_hit)
              sorted;
            if List.length sorted > occ_limit then
              Format.printf "  … %d more (raise --occupancy-rows)@."
                (List.length sorted - occ_limit)));
    Ok ()
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Render forensics chains from a recorded trajectory file")
    Term.(term_result (const run $ file_arg $ limit_arg $ occ_limit_arg))

(* --- study --- *)

let study_cmd =
  let study_arg =
    Arg.(required & pos 0 (some (enum
      [ ("fig3", Itua.Study.fig3); ("fig4", Itua.Study.fig4);
        ("fig5", Itua.Study.fig5); ("all", Itua.Study.all);
        ("sens", Itua.Study.sensitivity); ("ablate", Itua.Study.ablation);
        ("traj", Itua.Study.trajectory);
        ("rare", fun ?config () -> Itua.Study.fig4b_rare ?config ()) ]))
      None
      & info [] ~docv:"fig3|fig4|fig5|all|sens|ablate|traj|rare"
          ~doc:"Figures 3-5 ($(b,all) is the three), the parameter \
                sensitivity sweeps, the modeling ablations, the hourly \
                trajectories, or the Fig. 4(b) splitting appendix.")
  in
  let csv_dir_arg =
    Arg.(value & opt (some string) None & info [ "csv-dir" ] ~docv:"DIR"
           ~doc:"Also write one CSV per panel into $(docv).")
  in
  let run (study : ?config:Itua.Study.config -> unit -> _) reps seed cores
      csv_dir =
    let panels = study ~config:{ Itua.Study.reps; seed; domains = cores } () in
    List.iter
      (fun (id, table) ->
        Format.printf "@.%a" Report.pp_text table;
        match csv_dir with
        | None -> ()
        | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            let path = Filename.concat dir (id ^ ".csv") in
            Report.write_csv path table;
            Format.printf "  [csv: %s]@." path)
      panels;
    match Itua.Study.shape_checks panels with
    | [] -> ()
    | checks ->
        Format.printf "@.Shape checks against the paper:@.";
        List.iter
          (fun (label, ok) ->
            Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") label)
          checks
  in
  Cmd.v
    (Cmd.info "study"
       ~doc:"Regenerate the paper's design studies (Section 4) and side studies")
    Term.(const run $ study_arg $ n_reps_arg $ seed_arg $ cores_arg
          $ csv_dir_arg)

(* --- check --- *)

let check_json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write the machine-readable report to $(docv) (one JSON \
               object per line).")

let check_invariants_arg =
  Arg.(value & flag & info [ "invariants" ]
         ~doc:"Print the structural certificate: incidence modes, \
               P-semiflows, declared conservation-law verdicts, and \
               place bounds.")

let check_strict_arg =
  Arg.(value & flag & info [ "strict" ]
         ~doc:"Exit nonzero on warnings too, not just errors.")

let check_ir_dump_arg =
  Arg.(value & flag & info [ "ir-dump" ]
         ~doc:"Print the compiled effect IR: per-activity guard reads, \
               static read/write sets, and the exact per-case delta \
               rows the incidence analysis is built from. With \
               $(b,--json), the dump is embedded in the report under \
               the $(b,ir_dump) key.")

let check_symmetry_arg =
  Arg.(value & flag & info [ "symmetry" ]
         ~doc:"Run the orbit pass (partition refinement over the effect \
               IR): report the automorphism orbits of every replicate \
               family with generator witnesses (A017), name the \
               splitting element of any broken symmetry (A018), and \
               embed the orbit report under the $(b,symmetry) key of \
               the $(b,--json) document.")

let check_run config invariants strict ir_dump symmetry json =
  let h = handles_or_exit config in
  let report =
    Analysis.Check.run ~composition:h.Itua.Model.composition
      ~laws:(Itua.Invariant.conservation_laws h)
      h.Itua.Model.model
  in
  let orbits =
    if symmetry then
      Some (Analysis.Orbit.analyse h.Itua.Model.model h.Itua.Model.composition)
    else None
  in
  let dump =
    if ir_dump then Some (Analysis.Ir_dump.dump h.Itua.Model.model) else None
  in
  (* The orbit pass merges into the report BEFORE printing, so its
     A017/A018 diagnostics appear in the tally and drive the exit code
     like any other pass. *)
  let report, doc = Analysis.Check.certificate ?orbits ?ir_dump:dump report in
  Format.printf "%a" Analysis.Check.pp report;
  if invariants then
    Format.printf "@.%a" Analysis.Structure.pp
      report.Analysis.Check.structure;
  (match dump with
  | Some d -> Format.printf "@.%a" Analysis.Ir_dump.pp d
  | None -> ());
  (match json with
  | None -> ()
  | Some path ->
      Report.write_jsonl path [ doc ];
      Format.printf "JSON report written to %s@." path);
  exit (Analysis.Check.exit_code ~strict report)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check the model: negative markings, dead activities and \
             places, instantaneous loops and ties, unused shared places, \
             unbounded places, dead effects, and declared-invariant \
             violations. Exits nonzero if any error-level diagnostic is \
             reported ($(b,--strict) promotes warnings).")
    Term.(
      const check_run $ config_term $ check_invariants_arg $ check_strict_arg
      $ check_ir_dump_arg $ check_symmetry_arg $ check_json_arg)

(* --- mtta (exact, tiny configurations) --- *)

let mtta_lump_arg =
  Arg.(value
       & opt (enum [ ("auto", `Auto); ("off", `Off) ]) `Off
       & info [ "lump" ] ~docv:"MODE"
           ~doc:"State-space lumping before the exact solve. $(b,off) \
                 (default) explores the flat chain. $(b,auto) quotients \
                 by the automorphism orbits the $(b,check --symmetry) \
                 pass certifies — sound for heterogeneous fleets, with \
                 the exploration audit cross-checking every merge \
                 (raises on an unsound canon).")

let mtta_cmd =
  (* Only forced-choice configurations are analytically explorable. *)
  let minimal_params =
    Term.(
      const (fun multiplier scale ->
          params_of 1 1 1 1 Itua.Params.Domain_exclusion multiplier 1.0 scale)
      $ multiplier_arg $ scale_arg)
  in
  let run config lump metrics_out =
    let h = handles_or_exit config in
    let canon, audit =
      match lump with
      | `Off -> (None, false)
      | `Auto ->
          let rep =
            Analysis.Orbit.analyse h.Itua.Model.model
              h.Itua.Model.composition
          in
          List.iter
            (Format.printf "%a@." Analysis.Diagnostic.pp)
            (Analysis.Orbit.diagnostics rep);
          (Some (Analysis.Orbit.canon rep), true)
    in
    let obs = Option.map (fun _ -> Obs.Registry.create ()) metrics_out in
    let profile = Option.map (fun _ -> Obs.Profile.create ()) metrics_out in
    Format.printf
      "Exact CTMC analysis of the 1-domain/1-host/1-app/1-replica system@.";
    (match Ctmc.Explore.explore ?canon ~audit ?obs ?profile h.Itua.Model.model
     with
    | c ->
        Format.printf "  states: %d@." (Ctmc.Explore.n_states c);
        Format.printf "  mean time to full degradation: %.4f hours@."
          (Ctmc.Absorb.mean_time_to_absorption c);
        List.iter
          (fun t ->
            Format.printf "  unreliability [0,%g]: %.6f@." t
              (Ctmc.Measure.ever c ~until:t (fun m ->
                   Itua.Model.improper h 0 m)))
          [ 5.0; 10.0; 24.0 ];
        (match (metrics_out, obs) with
        | Some path, Some into ->
            write_snapshot path (registry ~into ?profile ());
            Format.printf "  [metrics snapshot: %s]@." path
        | _ -> ())
    | exception Ctmc.Explore.Non_markovian msg ->
        Format.eprintf "model is not Markovian: %s@." msg;
        exit 1
    | exception Ctmc.Explore.Unsound_canon msg ->
        Format.eprintf "lumping audit failed: %s@." msg;
        exit 1)
  in
  Cmd.v
    (Cmd.info "mtta"
       ~doc:"Exact mean time to full degradation of the minimal system")
    Term.(
      const run $ config_of minimal_params $ mtta_lump_arg $ metrics_out_arg)

(* --- structure --- *)

let structure_cmd =
  let dot_arg =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Write a GraphViz rendering of the flattened SAN to $(docv).")
  in
  let run params dot =
    let p = params () in
    let h = Itua.Model.build p in
    Format.printf "%a@.@." Itua.Params.pp p;
    Format.printf "Composition tree:@.%s@." h.Itua.Model.structure;
    Format.printf "%a@." San.Model.pp_summary h.Itua.Model.model;
    match dot with
    | None -> ()
    | Some path ->
        San.Dot.write_file path h.Itua.Model.model;
        Format.printf "DOT written to %s@." path
  in
  Cmd.v
    (Cmd.info "structure" ~doc:"Show the composed model's structure")
    Term.(const run $ params_term $ dot_arg)

(* --- save / load / diff --- *)

let save_cmd =
  let out_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Destination path of the itua-model/2 JSON document.")
  in
  let run params out =
    let p = params () in
    let h = Itua.Model.build p in
    let doc =
      Serial.to_json ~composition:h.Itua.Model.composition
        ~annotations:[ ("params", Itua.Params.to_json p) ]
        h.Itua.Model.model
    in
    Serial.save out doc;
    Format.printf "%a@." San.Model.pp_summary h.Itua.Model.model;
    Format.printf "model written to %s@." out
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Export the configured ITUA model as a versioned, deterministic \
             itua-model/2 JSON file (see doc/FORMAT.md). The parameter \
             block rides along as the \"params\" annotation, so \
             $(b,--model) can rebuild the measures around the file.")
    Term.(const run $ params_term $ out_arg)

let load_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"An itua-model/2 file.")
  in
  let run file =
    match Serial.load file with
    | Error e -> Error (`Msg e)
    | Ok l ->
        Format.printf "%a@." San.Model.pp_summary l.Serial.model;
        (match l.Serial.composition with
        | Some c ->
            Format.printf "@.Composition tree:@.%s" (Compose.render_info c)
        | None -> Format.printf "@.(no composition tree embedded)@.");
        (match List.assoc_opt "params" l.Serial.annotations with
        | None -> ()
        | Some j -> (
            match Itua.Params.of_json ~at:"$.annotations.params" j with
            | Ok p -> Format.printf "@.%a@." Itua.Params.pp p
            | Error e ->
                Format.printf "@.(unreadable \"params\" annotation: %s)@." e));
        (* Stability gate: re-emitting the reloaded model must reproduce
           the file byte for byte (modulo the trailing newline). *)
        let reemitted =
          Serial.emit ?composition:l.Serial.composition
            ~bounds:l.Serial.bounds ~annotations:l.Serial.annotations
            l.Serial.model
        in
        let original =
          let ic = open_in_bin file in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        if String.trim original = reemitted then begin
          Format.printf "@.re-emits byte-identically: yes@.";
          Ok ()
        end
        else Error (`Msg (file ^ ": re-emission differs from the file"))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Parse and validate a model file: summarize it, render its \
             composition tree and parameters, and verify that re-emitting \
             the reloaded model reproduces the file byte for byte.")
    Term.(term_result (const run $ file_arg))

let diff_cmd =
  let a_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"A" ~doc:"First model file.")
  in
  let b_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"B" ~doc:"Second model file.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the machine-readable diff report to $(docv).")
  in
  let run a b json =
    let ( let* ) = Result.bind in
    let read path =
      let contents =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Result.map_error (fun e -> `Msg (path ^ ": " ^ e))
        (Report.Json.of_string contents)
    in
    let* ja = read a in
    let* jb = read b in
    let entries = Serial.Diff.diff ja jb in
    (match json with
    | None -> ()
    | Some path ->
        Report.write_jsonl path [ Serial.Diff.to_json entries ];
        Format.printf "[diff json: %s]@." path);
    match entries with
    | [] ->
        Format.printf "models are structurally identical@.";
        Ok ()
    | es ->
        Format.printf "%a" Serial.Diff.pp es;
        Format.printf "%d difference(s)@." (List.length es);
        exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Structural diff between two model files: per-place and \
             per-activity changes, matched by name. Exits 1 when the \
             models differ.")
    Term.(term_result (const run $ a_arg $ b_arg $ json_arg))

let () =
  let doc =
    "probabilistic validation of the ITUA intrusion-tolerant replication \
     system (Singh, Cukier & Sanders, DSN 2003)"
  in
  let info = Cmd.info "itua-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; rare_cmd; explain_cmd; study_cmd; structure_cmd;
            check_cmd; mtta_cmd; save_cmd; load_cmd; diff_cmd;
          ]))
