(* Compile-checked mirrors of every ```ocaml snippet in doc/*.md.

   tools/check_docs.ml verifies (whitespace-normalized, `...` lines in a
   snippet acting as wildcards) that each documented snippet appears
   contiguously in this file, and this file is compiled by every build —
   so a doc snippet cannot silently drift away from the real API. When
   you edit a snippet in doc/, edit its mirror here (and vice versa).

   Nothing here runs: the functions exist to be type-checked. Warnings
   are disabled in dune (unused values, statement-discarded results) so
   the snippets can stay exactly as the docs render them. *)

(* --- doc/MODELING.md --- *)

let _modeling_pair () =
  let b = San.Model.Builder.create "pair" in
  let working = San.Model.Builder.int_place b ~init:2 "working" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"fail"
    ~rate:San.Effect.(RExpr (FMul (Flt 0.1, OfInt (Mark working))))
    ~guard:San.Effect.(Cmp (Mark working, Gt, Int 0))
    San.Effect.(Ops [ Inc (working, Int (-1)) ]);
  let guard = San.Effect.(Cmp (Mark working, Gt, Int 0)) in
  let convict = San.Effect.(Ops [ Inc (working, Int (-1)) ]) in
  San.Model.Builder.timed_exp_cases_rate_ir b ~name:"detect"
    ~rate:(San.Effect.RConst 4.0) ~guard
    [ (0.8, convict); (0.2, San.Effect.Skip) ];
  let model = San.Model.Builder.build b in
  let rewards =
    let up m = San.Marking.get m working > 0 in
    [ Sim.Reward.probability_in_interval ~name:"availability" ~until:24.0 up;
      Sim.Reward.ever ~name:"P(outage)" ~until:24.0 (fun m -> not (up m));
      Sim.Reward.instant ~name:"E[working]" ~at:24.0
        (fun m -> float_of_int (San.Marking.get m working)) ]
  in
  let spec = Sim.Runner.spec ~model ~horizon:24.0 rewards in
  let results = Sim.Runner.run ~seed:42L ~reps:10_000 spec in
  ignore results;
  model

let _modeling_ctmc model =
  let reward_fn _ = 1.0 in
  let pred _ = false in
  let chain = Ctmc.Explore.explore model in
  Ctmc.Measure.interval_average chain ~until:24.0 reward_fn;
  Ctmc.Measure.ever chain ~until:24.0 pred;          (* exact unreliability *)
  Ctmc.Absorb.mean_time_to_absorption chain;
  ()

let _modeling_compose () =
  let b = San.Model.Builder.create "system_of_nodes" in
  let root = Compose.Ctx.root b "system" in
  let total = Compose.Ctx.int_place root "total" in        (* shared *)
  let nodes =
    Compose.replicate root "node" ~n:10 (fun ctx i ->
        let local = Compose.Ctx.int_place ctx "tokens" in  (* per copy *)
        ignore (total, local, i))
  in
  ignore nodes

let _modeling_check model =
  assert (not (Analysis.Check.has_errors (Analysis.Check.run model)));
  ()

let _modeling_metrics ~model ~spec () =
  let metrics = Sim.Metrics.create ~model in
  let _results = Sim.Runner.run ~metrics ~seed:1L ~reps:1000 spec in
  List.iter print_endline (Sim.Metrics.never_fired metrics);
  let reg = Obs.Registry.create () in
  Sim.Metrics.export metrics ~into:reg;
  Format.printf "%a" Obs.Registry.pp reg

let _modeling_trace ~model () =
  let observer = Sim.Trace.observer ~show_marking:true ~model Format.std_formatter in
  let (_ : Sim.Executor.outcome) =
    Sim.Executor.run ~model
      ~config:(Sim.Executor.config ~horizon:10.0 ())
      ~stream:(Prng.Stream.create ~seed:7L) ~observer ()
  in
  ()

(* --- doc/OBSERVABILITY.md --- *)

let _observability_metrics ~model ~spec () =
  let metrics = Sim.Metrics.create ~model in
  let results = Sim.Runner.run ~metrics ~seed:42L ~reps:10_000 spec in
  let reg = Obs.Registry.create () in
  Sim.Metrics.export metrics ~into:reg;
  Format.printf "%a" Obs.Registry.pp reg

(* The progress record as OBSERVABILITY.md renders it; the real one is
   Sim.Runner.progress, whose fields this must keep matching. *)
type progress = {
  completed : int;            (* replications finished so far *)
  target : int;               (* reps (run) or max_reps (run_until) *)
  elapsed : float;            (* seconds since the call started *)
  eta : float option;         (* extrapolated seconds remaining *)
  worst_rel_hw : float;       (* the widest interval's badness *)
  cis : (string * Stats.Ci.t) list;  (* current CI per measure *)
}

let _observability_progress_matches_runner (p : Sim.Runner.progress) : progress
    =
  {
    completed = p.Sim.Runner.completed;
    target = p.Sim.Runner.target;
    elapsed = p.Sim.Runner.elapsed;
    eta = p.Sim.Runner.eta;
    worst_rel_hw = p.Sim.Runner.worst_rel_hw;
    cis = p.Sim.Runner.cis;
  }

let _observability_trace ~model ~config ~stream () =
  let observer = Sim.Trace.observer ~show_marking:true ~model Format.std_formatter in
  let (_ : Sim.Executor.outcome) =
    Sim.Executor.run ~model ~config ~stream ~observer ()
  in
  ()

let _observability_registry () =
  let reg = Obs.Registry.create () in
  let engine = Obs.Registry.scope reg "engine" in
  let events = Obs.Registry.counter engine "events" in
  Obs.Registry.add events 1;
  let depth = Obs.Registry.histogram engine "heap_depth" in
  Obs.Registry.observe depth 12.0;
  Obs.Registry.write "metrics.json" reg

let _observability_snapshot ~model ~spec () =
  let metrics = Sim.Metrics.create ~model in
  let profile = Obs.Profile.create () in
  let convergence = Obs.Convergence.create () in
  let results =
    Sim.Runner.run ~metrics ~profile ~convergence ~seed:42L ~reps:10_000 spec
  in
  let reg = Obs.Registry.create () in
  Sim.Metrics.export metrics ~into:reg;
  Obs.Profile.export profile ~into:reg;
  Obs.Registry.write
    ~extra:[ ("convergence", Obs.Convergence.to_json convergence) ]
    "metrics.json" reg

let _observability_forensics ~seed ~spec () =
  let h = Itua.Model.build Itua.Params.default in
  let sink =
    Sim.Trajectory.sink ~k:20
      ~predicate:(Itua.Forensics.failed_now h)   (* latched: "ever held" *)
      ~model:h.Itua.Model.model ()
  in
  let results = Sim.Runner.run ~seed ~reps:20_000 ~record:sink spec in
  let failures = Sim.Trajectory.matching sink in
  let stats = Sim.Trajectory.occupancy sink in
  ignore (results, failures, stats)

(* --- doc/ANALYSIS.md --- *)

let _analysis_gate () =
  let h = Itua.Model.build Itua.Params.default in
  let model = h.Itua.Model.model in
  let composition = h.Itua.Model.composition in
  let report = Analysis.Check.run ~composition model in
  Format.printf "%a@." Analysis.Check.pp report;
  if Analysis.Check.has_errors report then exit 1

let _analysis_certificate () =
  let h = Itua.Model.build Itua.Params.default in
  let report =
    Analysis.Check.run
      ~composition:h.Itua.Model.composition
      ~laws:(Itua.Invariant.conservation_laws h)
      h.Itua.Model.model
  in
  Format.printf "%a@." Analysis.Structure.pp report.Analysis.Check.structure;
  exit (Analysis.Check.exit_code report)

let _analysis_orbit model root ~my_canon =
  let rep = Analysis.Orbit.analyse model (Compose.info root) in
  List.iter
    (fun d -> Format.printf "%a@." Analysis.Diagnostic.pp d)
    (Analysis.Orbit.diagnostics rep);
  (* Orbit-restricted quotient, with every merge audited against the
     one-step rates of the states it collapses. *)
  let lumped =
    Ctmc.Explore.explore ~canon:(Analysis.Orbit.canon rep) ~audit:true model
  in
  (* A019 probe: is a caller-supplied canon sound here? *)
  let a019 = Analysis.Orbit.check_canon rep my_canon in
  ignore (lumped, a019)

let _analysis_guard ~config ~stream ~observer () =
  let h = Itua.Model.build Itua.Params.default in
  let guard =
    Analysis.Structure.guard
      ~laws:(Itua.Invariant.conservation_laws h)
      h.Itua.Model.model
  in
  let (_ : Sim.Executor.outcome) =
    Sim.Executor.run ~model:h.Itua.Model.model ~config ~stream ~observer
      ~check_invariants:guard ()
  in
  ()

let _analysis_closure_rate b =
  let working = San.Model.Builder.int_place b ~init:2 "working" in
  (* closure rate: simulates, but cannot be serialized or lumped *)
  San.Model.Builder.timed_exp_ir b ~name:"fail"
    ~rate:(fun _ -> 0.1)
    ~guard:San.Effect.(Cmp (Mark working, Gt, Int 0))
    San.Effect.(Ops [ Inc (working, Int (-1)) ]);
  (* declarative rate: guard, rate and delta are all data *)
  San.Model.Builder.timed_exp_rate_ir b ~name:"fail"
    ~rate:(San.Effect.RConst 0.1)
    ~guard:San.Effect.(Cmp (Mark working, Gt, Int 0))
    San.Effect.(Ops [ Inc (working, Int (-1)) ])

(* --- doc/FORMAT.md --- *)

let _format_save ~params () =
  let h = Itua.Model.build params in
  let doc =
    Serial.to_json
      ~composition:h.Itua.Model.composition
      ~annotations:[ ("params", Itua.Params.to_json params) ]
      h.Itua.Model.model
  in
  Serial.save "itua.model.json" doc

let _format_load () =
  match Serial.load "itua.model.json" with
  | Error e -> prerr_endline e; exit 2
  | Ok l ->
      let model = l.Serial.model in
      ignore model

let _format_mini () =
  let b = San.Model.Builder.create "two_state" in
  let up = San.Model.Builder.int_place b ~init:1 "up" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"fail"
    ~rate:(San.Effect.RConst 0.2)
    ~guard:San.Effect.(Cmp (Mark up, Eq, Int 1))
    San.Effect.(Ops [ Set (up, Int 0) ]);
  San.Model.Builder.timed_exp_rate_ir b ~name:"repair"
    ~rate:(San.Effect.RConst 1.0)
    ~guard:San.Effect.(Cmp (Mark up, Eq, Int 0))
    San.Effect.(Ops [ Set (up, Int 1) ]);
  print_string (Serial.emit (San.Model.Builder.build b))

let _format_diff ~doc_a ~doc_b () =
  let entries = Serial.Diff.diff doc_a doc_b in
  Format.printf "%a" Serial.Diff.pp entries

(* --- doc/RARE_EVENTS.md --- *)

let _rare_library params =
  let h = Itua.Model.build params in
  let importance = Itua.Rare.unreliability ~app:0 h ~levels:6 in
  let r =
    Sim.Splitting.run ~model:h.Itua.Model.model
      ~config:(Sim.Executor.config ~horizon:5.0 ())
      ~importance ~levels:6 ~clones:4 ~initial:2000 ~seed:1L ()
  in
  Format.printf "%a@." Stats.Ci.pp r.Sim.Splitting.estimate.Stats.Splitting.ci

let _rare_two_state_importance up =
  let importance m = if San.Marking.get m up = 1 then 0 else 1
  in
  importance
