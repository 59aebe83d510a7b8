(* Tour of the analysis tooling on a custom model: the multi-pass model
   checker, batch-means steady-state estimation, and exact absorption
   analysis.

     dune exec examples/analysis_tools.exe

   The model is a small intrusion-response loop: a service alternates
   between clean and compromised; each compromise is either cleaned
   (repair) or, with small probability, escalates to a permanent breach
   (absorbing). *)

module E = San.Effect

let is_state p k = E.Cmp (E.Mark p, E.Eq, E.Int k)
let set_state p k = E.Ops [ E.Set (p, E.Int k) ]

let build () =
  let b = San.Model.Builder.create "response_loop" in
  (* 0 = clean, 1 = compromised, 2 = breached (absorbing).  Keep the
     state space finite: no unbounded counters (the CTMC path explores
     every reachable marking). *)
  let state = San.Model.Builder.int_place b "state" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"compromise" ~rate:(E.RConst 0.5)
    ~guard:(is_state state 0)
    ~reads:[ San.Place.P state ]
    (set_state state 1);
  San.Model.Builder.timed_exp_cases_rate_ir b ~name:"respond"
    ~rate:(E.RConst 2.0) ~guard:(is_state state 1)
    ~reads:[ San.Place.P state ]
    [ (0.92, set_state state 0); (0.08, set_state state 2) ];
  (San.Model.Builder.build b, state)

let () =
  let model, state = build () in
  Format.printf "%a@.@." San.Model.pp_summary model;

  (* 1. Check: read sets, liveness, instantaneous hazards — the space is
     finite, so the walk is exhaustive and "never happens" findings are
     proofs. *)
  Format.printf "%a@." Analysis.Check.pp (Analysis.Check.run model);

  (* 2. Exact absorption analysis. *)
  let chain = Ctmc.Explore.explore model in
  Format.printf "@.Exact analysis (%d states):@." (Ctmc.Explore.n_states chain);
  Format.printf "  mean time to permanent breach: %.3f h@."
    (Ctmc.Absorb.mean_time_to_absorption chain);
  Format.printf "  P(breached by 24h):            %.4f@."
    (Ctmc.Measure.ever chain ~until:24.0 (fun m -> San.Marking.get m state = 2));

  (* Cross-check the mean time to absorption by simulation. *)
  let breached m = San.Marking.get m state = 2 in
  let spec =
    Sim.Runner.spec ~model ~horizon:1000.0 ~stop:breached
      [ Sim.Reward.first_passage ~name:"breach time" breached ]
  in
  let r = List.hd (Sim.Runner.run ~seed:11L ~reps:4000 spec) in
  Format.printf "  simulated breach time:         %a@." Stats.Ci.pp
    r.Sim.Runner.ci;

  (* 3. Batch-means steady state of the compromised fraction, on the
     repairable variant (no breach case). *)
  let b = San.Model.Builder.create "repair_only" in
  let st = San.Model.Builder.int_place b "state" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"compromise" ~rate:(E.RConst 0.5)
    ~guard:(is_state st 0)
    ~reads:[ San.Place.P st ]
    (set_state st 1);
  San.Model.Builder.timed_exp_rate_ir b ~name:"respond" ~rate:(E.RConst 2.0)
    ~guard:(is_state st 1)
    ~reads:[ San.Place.P st ]
    (set_state st 0);
  let repairable = San.Model.Builder.build b in
  let result =
    Sim.Steady.estimate ~model:repairable
      ~f:(fun m -> if San.Marking.get m st = 1 then 1.0 else 0.0)
      ~warmup:20.0 ~batch_length:50.0 ~batches:40
      ~stream:(Prng.Stream.create ~seed:3L)
      ()
  in
  Format.printf
    "@.Batch means (40 x 50h): compromised fraction %a (exact %.4f)@."
    Stats.Ci.pp result.Sim.Steady.ci
    (0.5 /. (0.5 +. 2.0))
