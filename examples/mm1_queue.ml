(* A bounded single-server queue (M/M/1/K) as a SAN: arrivals, service,
   blocking — with simulation estimates validated against the closed-form
   stationary distribution and the exact transient CTMC solution.

     dune exec examples/mm1_queue.exe *)

let lambda = 4.0 (* arrivals per hour *)
let mu = 5.0 (* services per hour *)
let k = 8 (* waiting room bound *)

module E = San.Effect

let build () =
  let b = San.Model.Builder.create "mm1k" in
  let customers = San.Model.Builder.int_place b "customers" in
  let served = San.Model.Builder.int_place b "served" in
  let blocked = San.Model.Builder.int_place b "blocked" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"arrive" ~rate:(E.RConst lambda)
    ~guard:(E.Const true)
    (E.If
       ( E.Cmp (E.Mark customers, E.Lt, E.Int k),
         E.Ops [ E.Inc (customers, E.Int 1) ],
         E.Ops [ E.Inc (blocked, E.Int 1) ] ));
  San.Model.Builder.timed_exp_rate_ir b ~name:"serve" ~rate:(E.RConst mu)
    ~guard:(E.Cmp (E.Mark customers, E.Gt, E.Int 0))
    (E.Ops [ E.Inc (customers, E.Int (-1)); E.Inc (served, E.Int 1) ]);
  (San.Model.Builder.build b, customers, served, blocked)

let () =
  let model, customers, served, blocked = build () in
  let horizon = 200.0 in
  let queue_len m = float_of_int (San.Marking.get m customers) in
  let rewards =
    [
      (* Warmed-up time average approximates the stationary mean. *)
      Sim.Reward.time_average ~name:"mean queue length (warm)" ~from_:50.0
        ~until:horizon queue_len;
      Sim.Reward.probability_in_interval ~name:"P(full) (warm)" ~from_:50.0
        ~until:horizon (fun m -> San.Marking.get m customers = k);
      Sim.Reward.final ~name:"throughput (jobs/h)" (fun m ->
          float_of_int (San.Marking.get m served) /. horizon);
      Sim.Reward.final ~name:"blocked (jobs/h)" (fun m ->
          float_of_int (San.Marking.get m blocked) /. horizon);
    ]
  in
  let spec = Sim.Runner.spec ~model ~horizon rewards in
  let results = Sim.Runner.run ~seed:7L ~reps:2000 spec in
  Format.printf "Simulation (2000 replications, horizon %.0fh):@." horizon;
  List.iter
    (fun (r : Sim.Runner.result) ->
      Format.printf "  %-26s %a@." r.name Stats.Ci.pp r.ci)
    results;

  (* Closed form: pi_i proportional to rho^i on 0..k. *)
  let rho = lambda /. mu in
  let raw = Array.init (k + 1) (fun i -> rho ** float_of_int i) in
  let z = Array.fold_left ( +. ) 0.0 raw in
  let pi = Array.map (fun x -> x /. z) raw in
  let mean_len =
    Array.to_list pi
    |> List.mapi (fun i p -> float_of_int i *. p)
    |> List.fold_left ( +. ) 0.0
  in
  Format.printf "@.Closed form:@.";
  Format.printf "  %-26s %.6f@." "mean queue length" mean_len;
  Format.printf "  %-26s %.6f@." "P(full)" pi.(k);
  Format.printf "  %-26s %.6f@." "throughput (jobs/h)"
    (lambda *. (1.0 -. pi.(k)));

  (* Exact transient comparison at a short horizon via uniformization.
     The counting places are unbounded over long runs, so explore a
     variant without them. *)
  let b = San.Model.Builder.create "mm1k_core" in
  let c2 = San.Model.Builder.int_place b "customers" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"arrive" ~rate:(E.RConst lambda)
    ~guard:(E.Cmp (E.Mark c2, E.Lt, E.Int k))
    (E.Ops [ E.Inc (c2, E.Int 1) ]);
  San.Model.Builder.timed_exp_rate_ir b ~name:"serve" ~rate:(E.RConst mu)
    ~guard:(E.Cmp (E.Mark c2, E.Gt, E.Int 0))
    (E.Ops [ E.Inc (c2, E.Int (-1)) ]);
  let core = San.Model.Builder.build b in
  let chain = Ctmc.Explore.explore core in
  let exact_at_1 =
    Ctmc.Measure.instant chain ~at:1.0 (fun m ->
        float_of_int (San.Marking.get m c2))
  in
  let sim_spec =
    Sim.Runner.spec ~model:core ~horizon:1.0
      [
        Sim.Reward.instant ~name:"len@1h" ~at:1.0 (fun m ->
            float_of_int (San.Marking.get m c2));
      ]
  in
  let sim_at_1 = List.hd (Sim.Runner.run ~seed:9L ~reps:5000 sim_spec) in
  Format.printf "@.Transient check at t=1h: exact %.5f, simulated %a@."
    exact_at_1 Stats.Ci.pp sim_at_1.Sim.Runner.ci
