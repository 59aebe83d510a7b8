(* Quickstart: model a repairable redundant pair as a stochastic activity
   network, estimate its availability by simulation, and check the answer
   against the exact CTMC solution.

     dune exec examples/quickstart.exe

   The system has two components; each fails at rate 0.1/h and a single
   repair crew fixes one failed component at a time at rate 1.0/h. Service
   is up while at least one component works. *)

module E = San.Effect

let () =
  (* 1. Build the SAN: one int place, two timed activities. Guards, rates
     and effects are declarative expressions over the marking. *)
  let b = San.Model.Builder.create "repairable_pair" in
  let working = San.Model.Builder.int_place b ~init:2 "working" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"fail"
    ~rate:(E.RExpr (E.FMul (E.Flt 0.1, E.OfInt (E.Mark working))))
    ~guard:(E.Cmp (E.Mark working, E.Gt, E.Int 0))
    (E.Ops [ E.Inc (working, E.Int (-1)) ]);
  San.Model.Builder.timed_exp_rate_ir b ~name:"repair" ~rate:(E.RConst 1.0)
    ~guard:(E.Cmp (E.Mark working, E.Lt, E.Int 2))
    (E.Ops [ E.Inc (working, E.Int 1) ]);
  let model = San.Model.Builder.build b in
  Format.printf "%a@.@." San.Model.pp_summary model;

  (* 2. Define measures as reward variables. *)
  let up m = San.Marking.get m working > 0 in
  let rewards =
    [
      Sim.Reward.probability_in_interval ~name:"availability [0,24h]"
        ~until:24.0 up;
      Sim.Reward.ever ~name:"P(total outage by 24h)" ~until:24.0 (fun m ->
          not (up m));
      Sim.Reward.instant ~name:"E[working at 24h]" ~at:24.0 (fun m ->
          float_of_int (San.Marking.get m working));
    ]
  in

  (* 3. Estimate by simulation: 10_000 independent replications. *)
  let spec = Sim.Runner.spec ~model ~horizon:24.0 rewards in
  let results = Sim.Runner.run ~seed:42L ~reps:10_000 spec in
  Format.printf "Simulation (10000 replications):@.";
  List.iter
    (fun (r : Sim.Runner.result) ->
      Format.printf "  %-28s %a@." r.name Stats.Ci.pp r.ci)
    results;

  (* 4. Solve the same model analytically and compare. *)
  let chain = Ctmc.Explore.explore model in
  Format.printf "@.Exact CTMC solution (%d states):@."
    (Ctmc.Explore.n_states chain);
  let avail =
    Ctmc.Measure.interval_average chain ~until:24.0 (fun m ->
        if up m then 1.0 else 0.0)
  in
  let outage = Ctmc.Measure.ever chain ~until:24.0 (fun m -> not (up m)) in
  let expected =
    Ctmc.Measure.instant chain ~at:24.0 (fun m ->
        float_of_int (San.Marking.get m working))
  in
  Format.printf "  %-28s %.6f@." "availability [0,24h]" avail;
  Format.printf "  %-28s %.6f@." "P(total outage by 24h)" outage;
  Format.printf "  %-28s %.6f@." "E[working at 24h]" expected;
  Format.printf "@.The confidence intervals above should cover these values.@."
