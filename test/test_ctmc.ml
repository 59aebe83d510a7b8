(* Tests for the ctmc library: state-space generation (including vanishing
   markings), uniformization against closed forms, steady state, reward
   measures, and cross-validation against the simulator. *)

let stream seed = Prng.Stream.create ~seed:(Int64.of_int seed)

let close ?(tol = 1e-8) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g (tol %g)" msg expected actual
      tol

(* --- exploration --- *)

let test_two_state_space () =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let c = Ctmc.Explore.explore ts.Test_models.ts_model in
  Alcotest.(check int) "two states" 2 (Ctmc.Explore.n_states c);
  Alcotest.(check int) "deterministic initial" 1
    (List.length (Ctmc.Explore.initial_dist c));
  let up_flags =
    Ctmc.Explore.eval c (fun m ->
        float_of_int (San.Marking.get m ts.Test_models.up))
  in
  (* One up state, one down state, each with one outgoing transition. *)
  let n_up = Array.fold_left ( +. ) 0.0 up_flags in
  close "one up state" 1.0 n_up;
  for i = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "state %d has one transition" i)
      1
      (List.length (Ctmc.Explore.transitions c i))
  done

let test_mm1k_space_and_rates () =
  let q = Test_models.mm1k ~lambda:2.0 ~mu:3.0 ~k:5 in
  let c = Ctmc.Explore.explore q.Test_models.q_model in
  Alcotest.(check int) "k+1 states" 6 (Ctmc.Explore.n_states c);
  (* Interior states have exit rate lambda + mu; boundaries one of them. *)
  let lens =
    Ctmc.Explore.eval c (fun m ->
        float_of_int (San.Marking.get m q.Test_models.q_len))
  in
  Array.iteri
    (fun i len ->
      let expected =
        if len = 0.0 then 2.0 else if len = 5.0 then 3.0 else 5.0
      in
      close (Printf.sprintf "exit rate of state %d" i) expected
        (Ctmc.Explore.exit_rate c i))
    lens

let test_non_markovian_rejected () =
  let b = San.Model.Builder.create "det" in
  let p = San.Model.Builder.int_place b "p" in
  San.Model.Builder.timed_dist_ir b ~name:"d"
    ~dist:San.(Activity.DDet (Effect.RConst 1.0))
    ~guard:San.Effect.(Cmp (Mark p, Eq, Int 0))
    [
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Set (p, San.Effect.Int 1) ]);
    ];
  let model = San.Model.Builder.build b in
  Alcotest.(check bool) "raises Non_markovian" true
    (match Ctmc.Explore.explore model with
    | (_ : Ctmc.Explore.t) -> false
    | exception Ctmc.Explore.Non_markovian _ -> true)

let test_state_limit () =
  (* Unbounded birth process: exploration must hit the cap. *)
  let b = San.Model.Builder.create "birth" in
  let p = San.Model.Builder.int_place b "n" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"birth"
    ~rate:(San.Effect.RConst 1.0) ~guard:(San.Effect.Const true)
    San.Effect.(Ops [ Inc (p, Int 1) ]);
  let model = San.Model.Builder.build b in
  Alcotest.(check bool) "raises Too_many_states" true
    (match Ctmc.Explore.explore ~max_states:100 model with
    | (_ : Ctmc.Explore.t) -> false
    | exception Ctmc.Explore.Too_many_states 100 -> true
    | exception Ctmc.Explore.Too_many_states _ -> true)

let test_vanishing_loop_detected () =
  let b = San.Model.Builder.create "vloop" in
  let p = San.Model.Builder.int_place b ~init:1 "p" in
  San.Model.Builder.instantaneous_ir b ~name:"spin"
    ~guard:San.Effect.(Cmp (Mark p, Eq, Int 1))
    San.Effect.(Ops [ Set (p, Int 1) ]);
  let model = San.Model.Builder.build b in
  Alcotest.(check bool) "raises Vanishing_loop" true
    (match Ctmc.Explore.explore model with
    | (_ : Ctmc.Explore.t) -> false
    | exception Ctmc.Explore.Vanishing_loop _ -> true)

(* Vanishing markings with probabilistic branching: a timed event enables
   an instantaneous activity with two cases (0.25 / 0.75) leading to two
   different stable states. *)
let branching_model () =
  let b = San.Model.Builder.create "branch" in
  let fired = San.Model.Builder.int_place b "fired" in
  let sort = San.Model.Builder.int_place b "sort" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"pulse"
    ~rate:(San.Effect.RConst 1.0)
    ~guard:San.Effect.(Cmp (Mark fired, Eq, Int 0))
    San.Effect.(Ops [ Set (fired, Int 1) ]);
  San.Model.Builder.activity_ir b ~name:"classify"
    ~timing:San.Activity.Instantaneous
    ~guard:San.Effect.(All [ Cmp (Mark fired, Eq, Int 1); Cmp (Mark sort, Eq, Int 0) ])
    [
      San.Activity.make_case ~weight:(San.Effect.RConst 0.25)
        (San.Effect.Ops [ San.Effect.Set (sort, San.Effect.Int 1) ]);
      San.Activity.make_case ~weight:(San.Effect.RConst 0.75)
        (San.Effect.Ops [ San.Effect.Set (sort, San.Effect.Int 2) ]);
    ];
  (San.Model.Builder.build b, sort)

let test_vanishing_branching () =
  let model, sort = branching_model () in
  let c = Ctmc.Explore.explore model in
  (* States: initial, sort=1, sort=2 (fired=1 & sort=0 is vanishing). *)
  Alcotest.(check int) "three stable states" 3 (Ctmc.Explore.n_states c);
  let p1 =
    Ctmc.Measure.instant c ~at:50.0 (fun m ->
        if San.Marking.get m sort = 1 then 1.0 else 0.0)
  in
  let p2 =
    Ctmc.Measure.instant c ~at:50.0 (fun m ->
        if San.Marking.get m sort = 2 then 1.0 else 0.0)
  in
  close ~tol:1e-6 "case 1 probability" 0.25 p1;
  close ~tol:1e-6 "case 2 probability" 0.75 p2

(* --- transient --- *)

let test_transient_two_state () =
  let lambda = 1.0 and mu = 4.0 in
  let ts = Test_models.two_state ~lambda ~mu in
  let c = Ctmc.Explore.explore ts.Test_models.ts_model in
  List.iter
    (fun t ->
      let avail =
        Ctmc.Measure.instant c ~at:t (fun m ->
            if San.Marking.get m ts.Test_models.up = 1 then 1.0 else 0.0)
      in
      close ~tol:1e-8
        (Printf.sprintf "availability at %g" t)
        (Test_models.two_state_availability ~lambda ~mu t)
        avail)
    [ 0.0; 0.1; 0.5; 1.0; 2.0; 10.0; 100.0 ]

let test_transient_tandem () =
  let r1 = 2.0 and r2 = 5.0 in
  let td = Test_models.tandem ~r1 ~r2 in
  let c = Ctmc.Explore.explore td.Test_models.td_model in
  List.iter
    (fun t ->
      let absorbed =
        Ctmc.Measure.instant c ~at:t (fun m ->
            if San.Marking.get m td.Test_models.stage = 2 then 1.0 else 0.0)
      in
      close ~tol:1e-8
        (Printf.sprintf "absorbed by %g" t)
        (Test_models.tandem_absorbed ~r1 ~r2 t)
        absorbed)
    [ 0.2; 0.5; 1.0; 3.0 ]

let test_accumulated_two_state () =
  (* Expected up-time over [0, t], closed form. *)
  let lambda = 1.0 and mu = 4.0 in
  let ts = Test_models.two_state ~lambda ~mu in
  let c = Ctmc.Explore.explore ts.Test_models.ts_model in
  let t = 2.0 in
  let avg =
    Ctmc.Measure.interval_average c ~until:t (fun m ->
        if San.Marking.get m ts.Test_models.up = 1 then 1.0 else 0.0)
  in
  let s = lambda +. mu in
  let expected =
    ((mu /. s *. t) +. (lambda /. (s *. s) *. (1.0 -. exp (-.s *. t)))) /. t
  in
  close ~tol:1e-8 "interval availability" expected avg

let test_interval_average_window () =
  (* Windowed average [a,b] = (acc(b) - acc(a)) / (b - a); check it against
     the closed form for the two-state model. *)
  let lambda = 1.0 and mu = 4.0 in
  let ts = Test_models.two_state ~lambda ~mu in
  let c = Ctmc.Explore.explore ts.Test_models.ts_model in
  let a = 1.0 and bnd = 3.0 in
  let avg =
    Ctmc.Measure.interval_average c ~from_:a ~until:bnd (fun m ->
        if San.Marking.get m ts.Test_models.up = 1 then 1.0 else 0.0)
  in
  (* closed form: integral of A(t) over [a,b] / (b-a). *)
  let s = lambda +. mu in
  let integral t =
    (mu /. s *. t) +. (lambda /. (s *. s) *. (1.0 -. exp (-.s *. t)))
  in
  close ~tol:1e-8 "windowed availability"
    ((integral bnd -. integral a) /. (bnd -. a))
    avg

let test_accumulated_sums_to_t () =
  let q = Test_models.mm1k ~lambda:2.0 ~mu:3.0 ~k:4 in
  let c = Ctmc.Explore.explore q.Test_models.q_model in
  List.iter
    (fun t ->
      let acc = Ctmc.Transient.accumulated c ~t in
      close ~tol:1e-9
        (Printf.sprintf "accumulated mass at %g" t)
        t
        (Array.fold_left ( +. ) 0.0 acc))
    [ 0.5; 3.0; 25.0 ]

(* --- steady state --- *)

let test_steady_mm1k () =
  let lambda = 2.0 and mu = 3.0 and k = 5 in
  let q = Test_models.mm1k ~lambda ~mu ~k in
  let c = Ctmc.Explore.explore q.Test_models.q_model in
  let pi = Ctmc.Steady.distribution c in
  let lens =
    Ctmc.Explore.eval c (fun m ->
        float_of_int (San.Marking.get m q.Test_models.q_len))
  in
  let expected = Test_models.mm1k_steady ~lambda ~mu ~k in
  Array.iteri
    (fun i p ->
      close ~tol:1e-8
        (Printf.sprintf "pi(%d customers)" (int_of_float lens.(i)))
        expected.(int_of_float lens.(i))
        p)
    pi

let test_steady_absorbing () =
  let td = Test_models.tandem ~r1:2.0 ~r2:5.0 in
  let c = Ctmc.Explore.explore td.Test_models.td_model in
  let absorbed =
    Ctmc.Measure.steady_average c (fun m ->
        if San.Marking.get m td.Test_models.stage = 2 then 1.0 else 0.0)
  in
  close ~tol:1e-6 "absorbing chain ends absorbed" 1.0 absorbed

(* --- measures: ever / unreliability --- *)

let test_ever_equals_transient_absorbed () =
  (* For the M/M/1/K queue, P(queue ever full by t) via the absorbing
     transform must dominate P(queue full at t) and be monotone in t. *)
  let q = Test_models.mm1k ~lambda:2.0 ~mu:3.0 ~k:3 in
  let c = Ctmc.Explore.explore q.Test_models.q_model in
  let full m = San.Marking.get m q.Test_models.q_len = 3 in
  let prev = ref 0.0 in
  List.iter
    (fun t ->
      let ever = Ctmc.Measure.ever c ~until:t full in
      let at =
        Ctmc.Measure.instant c ~at:t (fun m -> if full m then 1.0 else 0.0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "ever >= instant at %g" t)
        true (ever +. 1e-12 >= at);
      Alcotest.(check bool)
        (Printf.sprintf "monotone at %g" t)
        true
        (ever +. 1e-12 >= !prev);
      prev := ever)
    [ 0.5; 1.0; 2.0; 4.0; 8.0 ]

let test_ever_tandem_exact () =
  let r1 = 2.0 and r2 = 5.0 in
  let td = Test_models.tandem ~r1 ~r2 in
  let c = Ctmc.Explore.explore td.Test_models.td_model in
  List.iter
    (fun t ->
      close ~tol:1e-8
        (Printf.sprintf "ever absorbed by %g" t)
        (Test_models.tandem_absorbed ~r1 ~r2 t)
        (Ctmc.Measure.ever c ~until:t (fun m ->
             San.Marking.get m td.Test_models.stage = 2)))
    [ 0.3; 1.0; 2.0 ]

(* --- absorption analysis --- *)

let test_mtta_tandem () =
  (* Mean time to absorption of the 0 -> 1 -> 2 chain: 1/r1 + 1/r2. *)
  let td = Test_models.tandem ~r1:2.0 ~r2:5.0 in
  let c = Ctmc.Explore.explore td.Test_models.td_model in
  Alcotest.(check int) "one absorbing state" 1
    (List.length (Ctmc.Absorb.absorbing_states c));
  close ~tol:1e-9 "MTTA" (0.5 +. 0.2) (Ctmc.Absorb.mean_time_to_absorption c)

let test_mtta_repairable_detour () =
  (* 0 -> 1 at rate a; from 1, repair back to 0 at rate b or absorb at
     rate d.  MTTA from 0 solves t0 = 1/a + t1, t1 = 1/(b+d) + b/(b+d) t0:
     t0 = ((b+d)/d) (1/a) + 1/d. *)
  let a = 2.0 and b = 3.0 and d = 1.0 in
  let bld = San.Model.Builder.create "detour" in
  let st = San.Model.Builder.int_place bld "st" in
  let move name rate src dst =
    San.Model.Builder.timed_exp_rate_ir bld ~name ~rate:(San.Effect.RConst rate)
      ~guard:San.Effect.(Cmp (Mark st, Eq, Int src))
      San.Effect.(Ops [ Set (st, Int dst) ])
  in
  move "go" a 0 1;
  move "back" b 1 0;
  move "die" d 1 2;
  let c = Ctmc.Explore.explore (San.Model.Builder.build bld) in
  let expected = ((b +. d) /. d /. a) +. (1.0 /. d) in
  close ~tol:1e-9 "MTTA with repair detour" expected
    (Ctmc.Absorb.mean_time_to_absorption c)

let test_absorption_probabilities () =
  (* From 0: absorb left at rate 1 or right at rate 3 -> P(right) = 0.75. *)
  let bld = San.Model.Builder.create "race" in
  let st = San.Model.Builder.int_place bld ~init:1 "st" in
  San.Model.Builder.timed_exp_rate_ir bld ~name:"left"
    ~rate:(San.Effect.RConst 1.0)
    ~guard:San.Effect.(Cmp (Mark st, Eq, Int 1))
    San.Effect.(Ops [ Set (st, Int 0) ]);
  San.Model.Builder.timed_exp_rate_ir bld ~name:"right"
    ~rate:(San.Effect.RConst 3.0)
    ~guard:San.Effect.(Cmp (Mark st, Eq, Int 1))
    San.Effect.(Ops [ Set (st, Int 2) ]);
  let model = San.Model.Builder.build bld in
  let c = Ctmc.Explore.explore model in
  let value_of i =
    San.Marking.get (Ctmc.Explore.marking c i) (San.Model.find_place model "st")
  in
  close ~tol:1e-9 "P(absorb right)" 0.75
    (Ctmc.Absorb.absorption_probabilities c ~target:(fun i -> value_of i = 2));
  close ~tol:1e-9 "P(absorb left)" 0.25
    (Ctmc.Absorb.absorption_probabilities c ~target:(fun i -> value_of i = 0));
  Alcotest.(check int) "two absorbing states" 2
    (List.length (Ctmc.Absorb.absorbing_states c))

let test_mtta_requires_absorbing () =
  let q = Test_models.mm1k ~lambda:1.0 ~mu:2.0 ~k:3 in
  let c = Ctmc.Explore.explore q.Test_models.q_model in
  Alcotest.(check bool) "irreducible chain rejected" true
    (match Ctmc.Absorb.mean_time_to_absorption c with
    | (_ : float) -> false
    | exception Failure _ -> true)

let test_mtta_matches_simulation () =
  let td = Test_models.tandem ~r1:1.5 ~r2:0.8 in
  let c = Ctmc.Explore.explore td.Test_models.td_model in
  let exact = Ctmc.Absorb.mean_time_to_absorption c in
  let spec =
    Sim.Runner.spec ~model:td.Test_models.td_model ~horizon:200.0
      ~stop:(fun m -> San.Marking.get m td.Test_models.stage = 2)
      [
        Sim.Reward.first_passage ~name:"absorption time" (fun m ->
            San.Marking.get m td.Test_models.stage = 2);
      ]
  in
  let r = List.hd (Sim.Runner.run ~seed:77L ~reps:4000 spec) in
  if not (Stats.Ci.contains r.Sim.Runner.ci exact) then
    Alcotest.failf "MTTA: CI %s misses exact %.5f"
      (Format.asprintf "%a" Stats.Ci.pp r.Sim.Runner.ci)
      exact

(* --- cross-validation: simulator vs analytical solution --- *)

let test_sim_matches_ctmc_mm1k () =
  let q = Test_models.mm1k ~lambda:3.0 ~mu:4.0 ~k:4 in
  let c = Ctmc.Explore.explore q.Test_models.q_model in
  let mean_len m = float_of_int (San.Marking.get m q.Test_models.q_len) in
  let exact_at_2 = Ctmc.Measure.instant c ~at:2.0 mean_len in
  let exact_avg = Ctmc.Measure.interval_average c ~until:5.0 mean_len in
  let exact_ever_full =
    Ctmc.Measure.ever c ~until:5.0 (fun m ->
        San.Marking.get m q.Test_models.q_len = 4)
  in
  let spec =
    Sim.Runner.spec ~model:q.Test_models.q_model ~horizon:5.0
      [
        Sim.Reward.instant ~name:"len@2" ~at:2.0 mean_len;
        Sim.Reward.time_average ~name:"avg len" ~until:5.0 mean_len;
        Sim.Reward.ever ~name:"ever full" ~until:5.0 (fun m ->
            San.Marking.get m q.Test_models.q_len = 4);
      ]
  in
  let results = Sim.Runner.run ~seed:2025L ~reps:20_000 spec in
  List.iter2
    (fun (label, exact) (r : Sim.Runner.result) ->
      if not (Stats.Ci.contains r.ci exact) then
        Alcotest.failf "%s: CI %s misses exact %.6f" label
          (Format.asprintf "%a" Stats.Ci.pp r.ci)
          exact)
    [
      ("instant mean length", exact_at_2);
      ("interval mean length", exact_avg);
      ("ever full", exact_ever_full);
    ]
    results

let test_sim_matches_ctmc_branching () =
  let model, sort = branching_model () in
  let c = Ctmc.Explore.explore model in
  let pred m = San.Marking.get m sort = 1 in
  let exact = Ctmc.Measure.ever c ~until:3.0 pred in
  let spec =
    Sim.Runner.spec ~model ~horizon:3.0
      [ Sim.Reward.ever ~name:"sort=1" ~until:3.0 pred ]
  in
  let r = List.hd (Sim.Runner.run ~seed:31L ~reps:4000 spec) in
  if not (Stats.Ci.contains r.Sim.Runner.ci exact) then
    Alcotest.failf "branching: CI %s misses exact %.6f"
      (Format.asprintf "%a" Stats.Ci.pp r.Sim.Runner.ci)
      exact

(* Randomized cross-validation: for random bounded queues, the simulated
   instant queue length must sit near the exact transient solution.  The
   tolerance is 5 standard errors plus a little slack, so a false alarm is
   vanishingly unlikely while real bias (like the double-scheduling bug
   this harness once caught) trips it immediately. *)
let prop_random_queue_sim_matches_ctmc =
  QCheck2.Test.make ~name:"random M/M/1/K: sim matches CTMC" ~count:20
    QCheck2.Gen.(
      tup4 (float_range 0.5 4.0) (float_range 0.5 4.0) (int_range 2 5)
        (float_range 0.3 4.0))
    (fun (lambda, mu, k, t) ->
      let q = Test_models.mm1k ~lambda ~mu ~k in
      let c = Ctmc.Explore.explore q.Test_models.q_model in
      let f m = float_of_int (San.Marking.get m q.Test_models.q_len) in
      let exact = Ctmc.Measure.instant c ~at:t f in
      let spec =
        Sim.Runner.spec ~model:q.Test_models.q_model ~horizon:t
          [ Sim.Reward.instant ~name:"len" ~at:t f ]
      in
      let r = List.hd (Sim.Runner.run ~seed:99L ~reps:1500 spec) in
      let sem = Stats.Welford.sem r.Sim.Runner.welford in
      let err = Float.abs (r.Sim.Runner.ci.Stats.Ci.mean -. exact) in
      if err <= (5.0 *. sem) +. 1e-3 then true
      else
        QCheck2.Test.fail_reportf
          "lambda=%.2f mu=%.2f k=%d t=%.2f: exact %.4f, sim %.4f (err %.4f,            sem %.4f)"
          lambda mu k t exact r.Sim.Runner.ci.Stats.Ci.mean err sem)

let test_stream_sampling_effect_forks () =
  (* An effect that draws randomness ([Pick]) samples one branch in
     simulation and forks into every feasible branch, equally weighted,
     in analytical exploration. *)
  let b = San.Model.Builder.create "rngeff" in
  let p = San.Model.Builder.int_place b "p" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"draw"
    ~rate:(San.Effect.RConst 1.0)
    ~guard:San.Effect.(Cmp (Mark p, Eq, Int 0))
    San.Effect.(
      Pick
        (List.map
           (fun k -> (Const true, Ops [ Set (p, Int k) ]))
           [ 1; 2; 3 ]));
  let model = San.Model.Builder.build b in
  let c = Ctmc.Explore.explore model in
  Alcotest.(check int) "initial state plus three outcomes" 4
    (Ctmc.Explore.n_states c);
  List.iter
    (fun k ->
      close ~tol:1e-9
        (Printf.sprintf "P(p = %d) at t=50" k)
        (1.0 /. 3.0)
        (Ctmc.Measure.instant c ~at:50.0 (fun m ->
             if San.Marking.get m p = k then 1.0 else 0.0)))
    [ 1; 2; 3 ];
  let cfg = Sim.Executor.config ~horizon:10.0 () in
  let outcome =
    Sim.Executor.run ~model ~config:cfg ~stream:(stream 3)
      ~observer:Sim.Observer.nop ()
  in
  Alcotest.(check bool) "simulated" true
    (San.Marking.get outcome.Sim.Executor.final p >= 1)

(* --- symmetry-driven lumping --- *)

(* --- orbit refinement (partial symmetry) --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* [n] two-state machines under one Replicate, with an optional per-copy
   failure rate to break their exchangeability. *)
let ir_farm ?(rates = fun _ -> 1.0) n =
  let module E = San.Effect in
  let b = San.Model.Builder.create "irfarm" in
  let root = Compose.Ctx.root b "irfarm" in
  let ups =
    Compose.replicate root "node" ~n (fun ctx i ->
        let up = Compose.Ctx.int_place ctx ~init:1 "up" in
        San.Model.Builder.timed_exp_rate_ir (Compose.Ctx.builder ctx)
          ~name:(Compose.Ctx.activity ctx "fail")
          ~rate:(E.RConst (rates i))
          ~guard:(E.Cmp (E.Mark up, E.Eq, E.Int 1))
          (E.Ops [ E.Set (up, E.Int 0) ]);
        San.Model.Builder.timed_exp_rate_ir (Compose.Ctx.builder ctx)
          ~name:(Compose.Ctx.activity ctx "repair") ~rate:(E.RConst 2.5)
          ~guard:(E.Cmp (E.Mark up, E.Eq, E.Int 0))
          (E.Ops [ E.Set (up, E.Int 1) ]);
        up)
  in
  (San.Model.Builder.build b, Compose.info root, ups)

(* [n] exchangeable two-state machines composed with Compose.replicate:
   the full chain has 2^n states, the canonical-ordering quotient n+1. *)
let test_lumped_measures_agree () =
  let n = 6 in
  let model, info, ups = ir_farm n in
  let rep = Analysis.Orbit.analyse model info in
  (match rep.Analysis.Orbit.families with
  | [ f ] -> Alcotest.(check int) "six copies" n f.Analysis.Orbit.fa_copies
  | fs -> Alcotest.failf "expected one family, got %d" (List.length fs));
  let full = Ctmc.Explore.explore model in
  let lumped = Ctmc.Explore.explore ~canon:(Analysis.Orbit.canon rep) model in
  Alcotest.(check int) "full chain: 2^6" 64 (Ctmc.Explore.n_states full);
  Alcotest.(check int) "lumped chain: n+1" 7 (Ctmc.Explore.n_states lumped);
  (* Symmetric rewards must agree between the chains to solver accuracy:
     the lumping is exact, not approximate. *)
  let n_up m =
    Array.fold_left
      (fun acc up -> acc +. float_of_int (San.Marking.get m up))
      0.0 ups
  in
  let all_down m = n_up m = 0.0 in
  List.iter
    (fun t ->
      close ~tol:1e-9
        (Printf.sprintf "E[up] at t=%g" t)
        (Ctmc.Measure.instant full ~at:t n_up)
        (Ctmc.Measure.instant lumped ~at:t n_up);
      close ~tol:1e-9
        (Printf.sprintf "P(ever all down) by t=%g" t)
        (Ctmc.Measure.ever full ~until:t all_down)
        (Ctmc.Measure.ever lumped ~until:t all_down))
    [ 0.3; 1.0; 4.0 ];
  close ~tol:1e-9 "steady E[up]"
    (Ctmc.Measure.steady_average full n_up)
    (Ctmc.Measure.steady_average lumped n_up)

let test_orbit_full_symmetry () =
  let n = 6 in
  let model, info, ups = ir_farm n in
  let rep = Analysis.Orbit.analyse model info in
  Alcotest.(check bool) "pure" true rep.Analysis.Orbit.pure;
  (match rep.Analysis.Orbit.families with
  | [ f ] ->
      Alcotest.(check int) "one orbit" 1 (List.length f.Analysis.Orbit.fa_orbits);
      Alcotest.(check int) "star witnesses" (n - 1)
        (List.length f.Analysis.Orbit.fa_witnesses);
      Alcotest.(check int) "no breaks" 0 (List.length f.Analysis.Orbit.fa_breaks)
  | fs -> Alcotest.failf "expected one family, got %d" (List.length fs));
  let full = Ctmc.Explore.explore model in
  let lumped =
    Ctmc.Explore.explore ~canon:(Analysis.Orbit.canon rep) ~audit:true model
  in
  Alcotest.(check int) "full chain: 2^6" 64 (Ctmc.Explore.n_states full);
  Alcotest.(check int) "lumped chain: n+1" 7 (Ctmc.Explore.n_states lumped);
  let n_up m =
    Array.fold_left
      (fun acc up -> acc +. float_of_int (San.Marking.get m up))
      0.0 ups
  in
  List.iter
    (fun t ->
      close ~tol:1e-9
        (Printf.sprintf "E[up] at t=%g" t)
        (Ctmc.Measure.instant full ~at:t n_up)
        (Ctmc.Measure.instant lumped ~at:t n_up))
    [ 0.3; 1.0; 4.0 ]

let test_orbit_partial_symmetry () =
  let n = 6 in
  let rates i = if i < 3 then 1.0 else 4.0 in
  let model, info, ups = ir_farm ~rates n in
  let rep = Analysis.Orbit.analyse model info in
  (match rep.Analysis.Orbit.families with
  | [ f ] -> (
      match f.Analysis.Orbit.fa_orbits with
      | [ a; b ] ->
          Alcotest.(check (list int))
            "slow orbit" [ 0; 1; 2 ] a.Analysis.Orbit.ob_members;
          Alcotest.(check (list int))
            "fast orbit" [ 3; 4; 5 ] b.Analysis.Orbit.ob_members;
          (match f.Analysis.Orbit.fa_breaks with
          | [ bk ] ->
              Alcotest.(check bool)
                "break names the differing component" true
                (contains bk.Analysis.Orbit.bk_reason "differs")
          | bks -> Alcotest.failf "expected one break, got %d" (List.length bks))
      | os -> Alcotest.failf "expected two orbits, got %d" (List.length os))
  | fs -> Alcotest.failf "expected one family, got %d" (List.length fs));
  let full = Ctmc.Explore.explore model in
  let lumped =
    Ctmc.Explore.explore ~canon:(Analysis.Orbit.canon rep) ~audit:true model
  in
  Alcotest.(check int) "full chain: 2^6" 64 (Ctmc.Explore.n_states full);
  Alcotest.(check int) "lumped chain: 4*4" 16 (Ctmc.Explore.n_states lumped);
  let n_up m =
    Array.fold_left
      (fun acc up -> acc +. float_of_int (San.Marking.get m up))
      0.0 ups
  in
  List.iter
    (fun t ->
      close ~tol:1e-9
        (Printf.sprintf "E[up] at t=%g" t)
        (Ctmc.Measure.instant full ~at:t n_up)
        (Ctmc.Measure.instant lumped ~at:t n_up))
    [ 0.3; 1.0; 4.0 ];
  (* Sorting the whole family ignores the rate difference, so it is
     unsound here: the explore audit refuses to build the quotient. *)
  let slots = Array.map (fun up -> San.Place.index up) ups in
  let bad (ints, floats) =
    let ints = Array.copy ints in
    let sorted = Array.map (fun i -> ints.(i)) slots in
    Array.sort compare sorted;
    Array.iteri (fun k i -> ints.(i) <- sorted.(k)) slots;
    (ints, floats)
  in
  Alcotest.(check bool) "audit rejects unsound canon" true
    (match Ctmc.Explore.explore ~canon:bad ~audit:true model with
    | (_ : Ctmc.Explore.t) -> false
    | exception Ctmc.Explore.Unsound_canon _ -> true)

(* Two rates one part in 10^7 apart print alike under [%g], so a
   printed comparison would merge the copies; the orbit pass compares
   the floats and splits them. *)
let test_orbit_near_equal_rates () =
  let model, info, _ =
    ir_farm ~rates:(fun i -> if i = 0 then 1.0 else 1.0000001) 2
  in
  let rep = Analysis.Orbit.analyse model info in
  match rep.Analysis.Orbit.families with
  | [ f ] -> (
      Alcotest.(check (list (list int)))
        "two orbits" [ [ 0 ]; [ 1 ] ]
        (List.map (fun o -> o.Analysis.Orbit.ob_members) f.Analysis.Orbit.fa_orbits);
      match f.Analysis.Orbit.fa_breaks with
      | [ bk ] ->
          let r = bk.Analysis.Orbit.bk_reason in
          if not (contains r "distribution differs (1 vs 1.0000001000000001)")
          then Alcotest.failf "reason does not name the distribution: %s" r
      | bks -> Alcotest.failf "expected one break, got %d" (List.length bks))
  | fs -> Alcotest.failf "expected one family, got %d" (List.length fs)

(* Two copies share an orbit exactly when their rates are the same
   float, and a shared orbit always passes the lumpability audit. *)
let prop_orbit_rates_exact =
  let open QCheck2.Gen in
  let gen =
    float_range 0.1 10.0 >>= fun a ->
    oneof
      [
        return a;
        return (Float.succ a);
        return (a *. (1.0 +. 1e-7));
        float_range 0.1 10.0;
      ]
    >|= fun b -> (a, b)
  in
  QCheck2.Test.make ~name:"orbit iff rates equal" ~count:200
    ~print:(fun (a, b) -> Printf.sprintf "%h vs %h" a b)
    gen
    (fun (a, b) ->
      let model, info, _ = ir_farm ~rates:(fun i -> if i = 0 then a else b) 2 in
      let rep = Analysis.Orbit.analyse model info in
      let shared =
        match rep.Analysis.Orbit.families with
        | [ f ] -> List.length f.Analysis.Orbit.fa_orbits = 1
        | _ -> false
      in
      shared = Float.equal a b
      && ((not shared)
         ||
         let lumped =
           Ctmc.Explore.explore ~canon:(Analysis.Orbit.canon rep) ~audit:true
             model
         in
         Ctmc.Explore.n_states lumped = 3))

(* The same law on fleets of 3 to 6 copies: the orbits are the classes
   of equal rates, in member order, every break names the [fail]
   activity whose rate differs, and the orbit quotient passes the audit
   and agrees with the unlumped chain. *)
let prop_orbit_fleet_classes =
  let open QCheck2.Gen in
  let gen =
    triple (float_range 0.1 10.0) (float_range 0.1 10.0)
      (int_range 3 6 >>= fun n -> list_size (return n) (int_range 0 2))
  in
  QCheck2.Test.make ~name:"fleet orbits = rate classes" ~count:200
    ~print:(fun (a, b, picks) ->
      Printf.sprintf "a=%h b=%h picks=[%s]" a b
        (String.concat ";" (List.map string_of_int picks)))
    gen
    (fun (a, b, picks) ->
      let rates =
        Array.of_list
          (List.map (function 0 -> a | 1 -> Float.succ a | _ -> b) picks)
      in
      let n = Array.length rates in
      let model, info, ups = ir_farm ~rates:(fun i -> rates.(i)) n in
      let rep = Analysis.Orbit.analyse model info in
      let classes =
        List.fold_left
          (fun cls i ->
            let same c = Float.equal rates.(List.hd c) rates.(i) in
            if List.exists same cls then
              List.map (fun c -> if same c then c @ [ i ] else c) cls
            else cls @ [ [ i ] ])
          [] (List.init n Fun.id)
      in
      let names_fail r =
        match Scanf.sscanf_opt r "activity %S " Fun.id with
        | Some name -> String.ends_with ~suffix:".fail" name
        | None -> false
      in
      let n_up m =
        Array.fold_left
          (fun acc up -> acc +. float_of_int (San.Marking.get m up))
          0.0 ups
      in
      match rep.Analysis.Orbit.families with
      | [ f ] ->
          List.map (fun o -> o.Analysis.Orbit.ob_members) f.Analysis.Orbit.fa_orbits
          = classes
          && List.length f.Analysis.Orbit.fa_breaks = List.length classes - 1
          && List.for_all
               (fun bk -> names_fail bk.Analysis.Orbit.bk_reason)
               f.Analysis.Orbit.fa_breaks
          &&
          let full = Ctmc.Explore.explore model in
          let lumped =
            Ctmc.Explore.explore ~canon:(Analysis.Orbit.canon rep) ~audit:true
              model
          in
          Float.abs
            (Ctmc.Measure.instant full ~at:1.0 n_up
            -. Ctmc.Measure.instant lumped ~at:1.0 n_up)
          <= 1e-9
      | _ -> false)

let test_orbit_impure_degrades () =
  (* Copies with closure rates cannot be verified: singleton orbits,
     honest blockers, identity canon. *)
  let b = San.Model.Builder.create "closure_farm" in
  let root = Compose.Ctx.root b "closure_farm" in
  let (_ : unit array) =
    Compose.replicate root "node" ~n:3 (fun ctx _ ->
        let up = Compose.Ctx.int_place ctx ~init:1 "up" in
        San.Model.Builder.timed_exp_ir b
          ~name:(Compose.Ctx.activity ctx "toggle")
          ~rate:(fun _ -> 1.0)
          ~guard:(San.Effect.Const true)
          San.Effect.(Ops [ Set (up, Sub (Int 1, Mark up)) ]))
  in
  let model = San.Model.Builder.build b and info = Compose.info root in
  let rep = Analysis.Orbit.analyse model info in
  Alcotest.(check bool) "not pure" false rep.Analysis.Orbit.pure;
  Alcotest.(check bool) "has blockers" true (rep.Analysis.Orbit.blockers <> []);
  Alcotest.(check bool) "singleton orbits" true
    (List.for_all
       (fun f ->
         List.for_all
           (fun o -> List.length o.Analysis.Orbit.ob_members = 1)
           f.Analysis.Orbit.fa_orbits)
       rep.Analysis.Orbit.families)

(* On ITUA no family verifies; every break must show where the two
   shapes differ (two distinct sub-terms) on one line, and an activity
   that maps to itself is reported as not invariant, never as "not
   exchangeable" with itself. *)
let test_orbit_itua_break_reasons () =
  let h =
    Itua.Model.build
      {
        Itua.Params.default with
        Itua.Params.num_domains = 2;
        hosts_per_domain = 2;
        num_apps = 2;
        num_reps = 2;
      }
  in
  let rep = Analysis.Orbit.analyse h.Itua.Model.model h.Itua.Model.composition in
  let reasons =
    List.concat_map
      (fun f ->
        List.map (fun bk -> bk.Analysis.Orbit.bk_reason) f.Analysis.Orbit.fa_breaks)
      rep.Analysis.Orbit.families
  in
  Alcotest.(check int) "one break per family" 6 (List.length reasons);
  let index_from s i sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go i
  in
  List.iter
    (fun r ->
      if String.contains r '\n' then Alcotest.failf "multi-line reason: %S" r;
      (match Scanf.sscanf_opt r "activity %S " Fun.id with
      | Some name ->
          if contains r (Printf.sprintf "not exchangeable with %S" name) then
            Alcotest.failf "names one activity twice: %s" r
      | None -> Alcotest.failf "no activity named: %s" r);
      match index_from r 0 " differs (" with
      | None -> Alcotest.failf "no excerpts: %s" r
      | Some i -> (
          let body = String.sub r (i + 10) (String.length r - i - 11) in
          match index_from body 0 " vs " with
          | None -> Alcotest.failf "no excerpt pair: %s" r
          | Some j ->
              let mine = String.sub body 0 j
              and theirs = String.sub body (j + 4) (String.length body - j - 4) in
              if mine = theirs then Alcotest.failf "identical excerpts: %s" r))
    reasons

(* The heterogeneous fleet's rate multipliers reach the orbit pass only
   through the IR: the [on_host] coupling already makes every ITUA
   family singletons, and every break names the activity that differs,
   never a per-copy parameter. *)
let test_orbit_itua_hetero_fleet () =
  let h = Itua.Model.build (Itua.Study.hetero_fleet_params ()) in
  let rep = Analysis.Orbit.analyse h.Itua.Model.model h.Itua.Model.composition in
  List.iter
    (fun f ->
      Alcotest.(check int)
        (f.Analysis.Orbit.fa_path ^ ": singleton orbits")
        f.Analysis.Orbit.fa_copies
        (List.length f.Analysis.Orbit.fa_orbits);
      List.iter
        (fun bk ->
          let r = bk.Analysis.Orbit.bk_reason in
          if not (contains r "activity \"") then
            Alcotest.failf "no activity named: %s" r;
          if contains r "parameter differs" then
            Alcotest.failf "parameter reason: %s" r)
        f.Analysis.Orbit.fa_breaks)
    rep.Analysis.Orbit.families

let test_symmetry_join_of_replicate () =
  (* Two Rep families under the branches of a Join: detection must keep
     them separate — one group per family, each lumpable on its own. *)
  let module E = San.Effect in
  let b = San.Model.Builder.create "joined" in
  let root = Compose.Ctx.root b "joined" in
  let farm ctx label n =
    Compose.replicate ctx label ~n (fun ctx _ ->
        let up = Compose.Ctx.int_place ctx ~init:1 "up" in
        San.Model.Builder.timed_exp_rate_ir (Compose.Ctx.builder ctx)
          ~name:(Compose.Ctx.activity ctx "toggle") ~rate:(E.RConst 1.0)
          ~guard:(E.Cmp (E.Mark up, E.Ge, E.Int 0))
          (E.Ops [ E.Set (up, E.Sub (E.Int 1, E.Mark up)) ]))
  in
  let (_ : unit array) = Compose.join root "left" (fun ctx -> farm ctx "node" 3) in
  let (_ : unit array) = Compose.join root "right" (fun ctx -> farm ctx "cell" 2) in
  let model = San.Model.Builder.build b in
  let info = Compose.info root in
  let rep = Analysis.Orbit.analyse model info in
  Alcotest.(check (list int)) "two families, 3 and 2 copies" [ 2; 3 ]
    (List.sort compare
       (List.map (fun f -> f.Analysis.Orbit.fa_copies) rep.Analysis.Orbit.families));
  Alcotest.(check bool) "pure" true rep.Analysis.Orbit.pure;
  Alcotest.(check (list int)) "one orbit per family" [ 1; 1 ]
    (List.map
       (fun f -> List.length f.Analysis.Orbit.fa_orbits)
       rep.Analysis.Orbit.families);
  (* Joint quotient: 2^5 = 32 states down to 4 x 3 = 12 multisets. *)
  let full = Ctmc.Explore.explore model in
  let lumped =
    Ctmc.Explore.explore ~canon:(Analysis.Orbit.canon rep) ~audit:true model
  in
  Alcotest.(check int) "full chain" 32 (Ctmc.Explore.n_states full);
  Alcotest.(check int) "lumped chain" 12 (Ctmc.Explore.n_states lumped)

let test_symmetry_nested_replicate () =
  (* Replicate of Replicate: the outer family and each inner family are
     all detected; the joint canon lumps multisets of multisets. *)
  let module E = San.Effect in
  let b = San.Model.Builder.create "nested" in
  let root = Compose.Ctx.root b "nested" in
  let ups = ref [] in
  let (_ : unit array array) =
    Compose.replicate root "domain" ~n:2 (fun ctx _ ->
        Compose.replicate ctx "host" ~n:3 (fun ctx _ ->
            let up = Compose.Ctx.int_place ctx ~init:1 "up" in
            ups := up :: !ups;
            San.Model.Builder.timed_exp_rate_ir (Compose.Ctx.builder ctx)
              ~name:(Compose.Ctx.activity ctx "fail") ~rate:(E.RConst 1.0)
              ~guard:(E.Cmp (E.Mark up, E.Eq, E.Int 1))
              (E.Ops [ E.Set (up, E.Int 0) ]);
            San.Model.Builder.timed_exp_rate_ir (Compose.Ctx.builder ctx)
              ~name:(Compose.Ctx.activity ctx "repair")
              ~rate:(E.RConst 2.5)
              ~guard:(E.Cmp (E.Mark up, E.Eq, E.Int 0))
              (E.Ops [ E.Set (up, E.Int 1) ])))
  in
  let model = San.Model.Builder.build b in
  let info = Compose.info root in
  let rep = Analysis.Orbit.analyse model info in
  Alcotest.(check (list int)) "outer family + one inner per copy"
    [ 2; 3; 3 ]
    (List.sort compare
       (List.map (fun f -> f.Analysis.Orbit.fa_copies) rep.Analysis.Orbit.families));
  Alcotest.(check bool) "pure" true rep.Analysis.Orbit.pure;
  Alcotest.(check (list int)) "full orbits everywhere" [ 1; 1; 1 ]
    (List.map
       (fun f -> List.length f.Analysis.Orbit.fa_orbits)
       rep.Analysis.Orbit.families);
  (* 2^6 = 64 flat states; sorting hosts within each domain and then the
     two domain subvectors leaves unordered pairs of host multisets:
     C(4+1, 2) = 10. *)
  let full = Ctmc.Explore.explore model in
  let lumped =
    Ctmc.Explore.explore ~canon:(Analysis.Orbit.canon rep) ~audit:true model
  in
  Alcotest.(check int) "full chain" 64 (Ctmc.Explore.n_states full);
  Alcotest.(check int) "lumped chain" 10 (Ctmc.Explore.n_states lumped);
  let n_up m =
    List.fold_left
      (fun acc up -> acc +. float_of_int (San.Marking.get m up))
      0.0 !ups
  in
  List.iter
    (fun t ->
      close ~tol:1e-9
        (Printf.sprintf "E[up] at t=%g" t)
        (Ctmc.Measure.instant full ~at:t n_up)
        (Ctmc.Measure.instant lumped ~at:t n_up))
    [ 0.5; 2.0 ]

let test_orbit_report_deterministic () =
  (* The rendered orbit report — what [check --symmetry --json] embeds —
     must be byte-identical across repeated analyses and across domains:
     no hashtable iteration order, wall clock, or domain id may leak. *)
  let render () =
    let model, info, _ = ir_farm ~rates:(fun i -> if i < 2 then 1.0 else 3.0) 5 in
    let rep = Analysis.Orbit.analyse model info in
    Report.Json.to_string (Analysis.Orbit.to_json rep)
    ^ String.concat "\n"
        (List.map
           (fun d -> Format.asprintf "%a" Analysis.Diagnostic.pp d)
           (Analysis.Orbit.diagnostics rep))
  in
  let reference = render () in
  Alcotest.(check string) "same bytes on re-analysis" reference (render ());
  let spawned =
    Array.init 2 (fun _ -> Domain.spawn (fun () -> render ()))
  in
  Array.iter
    (fun d ->
      Alcotest.(check string) "same bytes across domains" reference
        (Domain.join d))
    spawned

let test_symmetry_detect_rejects_asymmetry () =
  (* A copy that differs structurally (different initial marking) must
     not share an orbit with the others. *)
  let b = San.Model.Builder.create "skewed" in
  let root = Compose.Ctx.root b "skewed" in
  let (_ : unit array) =
    Compose.replicate root "node" ~n:3 (fun ctx i ->
        let up = Compose.Ctx.int_place ctx ~init:(if i = 0 then 0 else 1) "up" in
        San.Model.Builder.timed_exp_rate_ir (Compose.Ctx.builder ctx)
          ~name:(Compose.Ctx.activity ctx "toggle")
          ~rate:(San.Effect.RConst 1.0) ~guard:(San.Effect.Const true)
          San.Effect.(Ops [ Set (up, Sub (Int 1, Mark up)) ]))
  in
  let model = San.Model.Builder.build b in
  let rep = Analysis.Orbit.analyse model (Compose.info root) in
  match rep.Analysis.Orbit.families with
  | [ f ] ->
      Alcotest.(check (list (list int))) "copy 0 alone" [ [ 0 ]; [ 1; 2 ] ]
        (List.map (fun o -> o.Analysis.Orbit.ob_members) f.Analysis.Orbit.fa_orbits);
      Alcotest.(check bool) "break names the place layout" true
        (List.exists
           (fun bk -> contains bk.Analysis.Orbit.bk_reason "place layout")
           f.Analysis.Orbit.fa_breaks)
  | fs -> Alcotest.failf "expected one family, got %d" (List.length fs)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_random_queue_sim_matches_ctmc;
        prop_orbit_rates_exact;
        prop_orbit_fleet_classes;
      ]
  in
  Alcotest.run "ctmc"
    [
      ("randomized-cross-validation", props);
      ( "explore",
        [
          Alcotest.test_case "two-state space" `Quick test_two_state_space;
          Alcotest.test_case "mm1k space and rates" `Quick
            test_mm1k_space_and_rates;
          Alcotest.test_case "non-markovian rejected" `Quick
            test_non_markovian_rejected;
          Alcotest.test_case "state limit" `Quick test_state_limit;
          Alcotest.test_case "vanishing loop" `Quick
            test_vanishing_loop_detected;
          Alcotest.test_case "vanishing branching" `Quick
            test_vanishing_branching;
          Alcotest.test_case "sampling effect forks" `Quick
            test_stream_sampling_effect_forks;
        ] );
      ( "lumping",
        [
          Alcotest.test_case "lumped measures agree" `Quick
            test_lumped_measures_agree;
          Alcotest.test_case "asymmetry rejected" `Quick
            test_symmetry_detect_rejects_asymmetry;
          Alcotest.test_case "orbit: full symmetry" `Quick
            test_orbit_full_symmetry;
          Alcotest.test_case "orbit: partial symmetry" `Quick
            test_orbit_partial_symmetry;
          Alcotest.test_case "orbit: near-equal rates split" `Quick
            test_orbit_near_equal_rates;
          Alcotest.test_case "orbit: impure degrades" `Quick
            test_orbit_impure_degrades;
          Alcotest.test_case "orbit: ITUA reasons" `Quick
            test_orbit_itua_break_reasons;
          Alcotest.test_case "orbit: hetero ITUA fleet" `Quick
            test_orbit_itua_hetero_fleet;
          Alcotest.test_case "join of replicate" `Quick
            test_symmetry_join_of_replicate;
          Alcotest.test_case "nested replicate" `Quick
            test_symmetry_nested_replicate;
          Alcotest.test_case "orbit report deterministic" `Quick
            test_orbit_report_deterministic;
        ] );
      ( "transient",
        [
          Alcotest.test_case "two-state closed form" `Quick
            test_transient_two_state;
          Alcotest.test_case "tandem closed form" `Quick test_transient_tandem;
          Alcotest.test_case "accumulated closed form" `Quick
            test_accumulated_two_state;
          Alcotest.test_case "accumulated mass" `Quick
            test_accumulated_sums_to_t;
          Alcotest.test_case "windowed interval average" `Quick
            test_interval_average_window;
        ] );
      ( "steady",
        [
          Alcotest.test_case "mm1k distribution" `Quick test_steady_mm1k;
          Alcotest.test_case "absorbing chain" `Quick test_steady_absorbing;
        ] );
      ( "measures",
        [
          Alcotest.test_case "ever bounds" `Quick
            test_ever_equals_transient_absorbed;
          Alcotest.test_case "ever exact (tandem)" `Quick
            test_ever_tandem_exact;
        ] );
      ( "absorption",
        [
          Alcotest.test_case "tandem MTTA" `Quick test_mtta_tandem;
          Alcotest.test_case "MTTA with repair detour" `Quick
            test_mtta_repairable_detour;
          Alcotest.test_case "absorption probabilities" `Quick
            test_absorption_probabilities;
          Alcotest.test_case "requires absorbing state" `Quick
            test_mtta_requires_absorbing;
          Alcotest.test_case "MTTA vs simulation" `Slow
            test_mtta_matches_simulation;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "simulator vs CTMC (mm1k)" `Slow
            test_sim_matches_ctmc_mm1k;
          Alcotest.test_case "simulator vs CTMC (branching)" `Slow
            test_sim_matches_ctmc_branching;
        ] );
    ]
