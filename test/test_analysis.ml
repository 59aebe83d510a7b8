(* Tests for the analysis library: one deliberately broken fixture per
   diagnostic code (pinned to the code and message), clean models that
   must check clean, exhaustive-coverage proofs on models of known size,
   and report determinism. *)

module B = San.Model.Builder
module M = San.Marking
module E = San.Effect
module D = Analysis.Diagnostic

let check ?composition ?runs model =
  Analysis.Check.run ?composition ?runs model

let diags (r : Analysis.Check.t) = r.Analysis.Check.diagnostics

let with_code code r =
  List.filter (fun (d : D.t) -> d.D.code = code) (diags r)

let message_mentions ~needle (d : D.t) =
  let hay = d.D.message and n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let pp_report r = Format.asprintf "%a" Analysis.Check.pp r

(* --- clean models check clean --- *)

let test_clean_mm1k () =
  let q = Test_models.mm1k ~lambda:2.0 ~mu:3.0 ~k:4 in
  let r = check q.Test_models.q_model in
  Alcotest.(check bool)
    "exhaustive mode" true
    (r.Analysis.Check.mode = Analysis.Space.Exhaustive);
  (* K = 4 queue: exactly the 5 markings 0..4, proving full coverage. *)
  Alcotest.(check int) "five stable markings" 5 r.Analysis.Check.n_stable;
  Alcotest.(check string) "no diagnostics" ""
    (String.concat "; " (List.map (Format.asprintf "%a" D.pp) (diags r)))

let test_clean_gong () =
  let g = Test_models.gong () in
  let r = check g.Test_models.g_model in
  Alcotest.(check bool)
    "exhaustive mode" true
    (r.Analysis.Check.mode = Analysis.Space.Exhaustive);
  Alcotest.(check int) "nine stable markings" 9 r.Analysis.Check.n_stable;
  (* Cross-check the coverage claim against the CTMC generator. *)
  Alcotest.(check int) "matches the CTMC state count"
    (Ctmc.Explore.n_states (Ctmc.Explore.explore g.Test_models.g_model))
    r.Analysis.Check.n_stable;
  Alcotest.(check (list string)) "no diagnostics" []
    (List.map (Format.asprintf "%a" D.pp) (diags r))

(* --- derived reads --- *)

(* The builder derives [reads] from every IR read: [bias] is in
   [choose]'s reads, in uid order with its guard's [fired], and wakes
   it. *)
let test_derived_weight () =
  let b = B.create "ir_weight" in
  let bias = B.int_place b ~init:3 "bias" in
  let fired = B.int_place b "fired" in
  B.timed_dist_ir b ~name:"choose"
    ~dist:(San.Activity.DExp (E.RConst 1.0))
    ~guard:E.(Cmp (Mark fired, Eq, Int 0))
    [
      San.Activity.make_case
        ~weight:E.(OfInt (Mark bias))
        (San.Effect.Ops [ San.Effect.Set (fired, San.Effect.Int 1) ]);
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Set (fired, San.Effect.Int 1) ]);
    ];
  let model = B.build b in
  Alcotest.(check (list string)) "reads derived" [ "bias"; "fired" ]
    (List.map San.Place.any_name
       (San.Model.find_activity model "choose").San.Activity.reads)

(* Reads are taken off the IR syntax, so a read in a branch no visited
   marking takes, or of an activity that is never enabled, is derived
   as well. [go] reads [hidden] only in the [flag = 1] arm of its rate
   (or, with [~weight], of its first case's weight), and [flag] stays 0.
   With [~dead], [go] needs [flag = 1] and never fires. Returns [go]'s
   reads. *)
let derived_exact ?(weight = false) ?(dead = false) () =
  let b = B.create "derived_exact" in
  let flag = B.int_place b "flag" in
  let hidden = B.int_place b ~init:1 "hidden" in
  let n = B.int_place b "n" in
  let reads_hidden =
    E.(RIf (Cmp (Mark flag, Eq, Int 1), OfInt (Mark hidden), RConst 1.0))
  in
  let step = E.(Ops [ Inc (n, Int 1) ]) in
  let rate, cases =
    if weight then
      ( E.RConst 1.0,
        San.Activity.
          [ make_case ~weight:reads_hidden step; make_case step ] )
    else (reads_hidden, [ San.Activity.make_case step ])
  in
  B.timed_dist_ir b ~name:"go" ~dist:(San.Activity.DExp rate)
    ~guard:
      E.(
        All
          [
            Cmp (Mark n, Lt, Int 3);
            (if dead then Cmp (Mark flag, Eq, Int 1) else Const true);
          ])
    cases;
  B.timed_exp_rate_ir b ~name:"reset" ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark n, Eq, Int 3))
    E.(Ops [ Set (n, Int 0) ]);
  List.map San.Place.any_name
    (San.Model.find_activity (B.build b) "go").San.Activity.reads

let derived_hidden = [ "flag"; "hidden"; "n" ]

let test_derived_untaken_branch () =
  Alcotest.(check (list string))
    "dist read in the untaken arm" derived_hidden (derived_exact ())

let test_derived_untaken_weight () =
  Alcotest.(check (list string))
    "weight read in the untaken arm" derived_hidden
    (derived_exact ~weight:true ())

let test_derived_never_enabled () =
  Alcotest.(check (list string))
    "dist read of a dead activity" derived_hidden
    (derived_exact ~dead:true ())

(* --- a closure timing wakes on every marking change --- *)

(* A closure rate is the one read the builder cannot see, so a closure
   timing reads every place. [raise_flag] writes [flag]; [consume]'s
   rate closure is 0 until [flag] is set, so [consume] fires only if
   that write wakes it. *)
let test_closure_rate_wakes () =
  let b = B.create "closure_wake" in
  let flag = B.int_place b "flag" in
  let done_ = B.int_place b "done" in
  B.timed_exp_rate_ir b ~name:"raise_flag"
    ~rate:(E.RConst 1.0)
    ~guard:E.(All [ Cmp (Mark flag, Eq, Int 0); Cmp (Mark done_, Eq, Int 0) ])
    E.(Ops [ Set (flag, Int 1) ]);
  B.timed_exp_ir b ~name:"consume"
    ~rate:(fun m -> if M.get m flag = 1 then 1.0 else 0.0)
    ~guard:E.(Cmp (Mark done_, Eq, Int 0))
    E.(Ops [ Set (done_, Int 1) ]);
  let model = B.build b in
  Alcotest.(check (list string)) "flag wakes consume"
    [ "raise_flag"; "consume" ]
    (List.map
       (fun (a : San.Activity.t) -> a.name)
       (San.Model.dependents model (San.Place.uid flag)));
  let config = Sim.Executor.config ~horizon:50.0 () in
  let fired = ref 0 in
  for seed = 1 to 100 do
    let outcome =
      Sim.Executor.run ~model ~config
        ~stream:(Prng.Stream.create ~seed:(Int64.of_int seed))
        ~observer:Sim.Observer.nop ()
    in
    if M.get outcome.Sim.Executor.final done_ = 1 then incr fired
  done;
  Alcotest.(check int) "consume fires in every run" 100 !fired

(* --- A003: negative-marking writes --- *)

let test_a003_negative_write () =
  let b = B.create "buggy_negative" in
  let stock = B.int_place b "stock" in
  (* Enabled regardless of stock, so the effect underflows at 0. *)
  B.timed_exp_rate_ir b ~name:"take" ~rate:(E.RConst 1.0)
    ~guard:(E.Const true)
    E.(Ops [ Inc (stock, Int (-1)) ]);
  let r = check (B.build b) in
  match with_code D.negative_write r with
  | [ d ] ->
      Alcotest.(check bool) "error at the activity" true
        (d.D.severity = D.Error && d.D.source = D.Activity "take");
      Alcotest.(check bool) "carries the Marking.set message" true
        (message_mentions ~needle:"negative" d
        && message_mentions ~needle:"stock" d)
  | ds -> Alcotest.failf "expected exactly one A003, got %d:\n%s"
            (List.length ds) (pp_report r)

(* Only the second of two feasible [Pick] branches underflows. The walk
   is exhaustive, so the check must fork every branch rather than draw
   one: a run that picks the second branch raises. *)
let test_a003_pick_branch () =
  let b = B.create "buggy_pick" in
  let c = B.int_place b ~init:2 "c" in
  let a = B.int_place b "a" in
  B.timed_exp_rate_ir b ~name:"step" ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark c, Gt, Int 0))
    E.(
      Pick
        [
          (Const true, Ops [ Inc (c, Int (-1)) ]);
          (Const true, Ops [ Inc (c, Int (-1)); Inc (a, Int (-1)) ]);
        ]);
  let r = check (B.build b) in
  Alcotest.(check bool)
    "exhaustive mode" true
    (r.Analysis.Check.mode = Analysis.Space.Exhaustive);
  match with_code D.negative_write r with
  | [ d ] ->
      Alcotest.(check bool) "error at the activity, naming the place" true
        (d.D.severity = D.Error
        && d.D.source = D.Activity "step"
        && message_mentions ~needle:"place a would become negative" d)
  | ds -> Alcotest.failf "expected exactly one A003, got %d:\n%s"
            (List.length ds) (pp_report r)

(* --- A004/A005/A006: liveness --- *)

let test_a004_dead_activity () =
  let b = B.create "with_dead" in
  let lvl = B.int_place b "lvl" in
  B.timed_exp_rate_ir b ~name:"step" ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark lvl, Lt, Int 3))
    E.(Ops [ Inc (lvl, Int 1) ]);
  (* Dead: [lvl] never exceeds 3, so the guard never holds. *)
  B.timed_exp_rate_ir b ~name:"overflow" ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark lvl, Gt, Int 7))
    E.(Ops [ Set (lvl, Int 0) ]);
  let r = check (B.build b) in
  match with_code D.dead_activity r with
  | [ d ] ->
      Alcotest.(check bool) "warning on the dead activity" true
        (d.D.severity = D.Warning && d.D.source = D.Activity "overflow")
  | ds -> Alcotest.failf "expected exactly one A004, got %d:\n%s"
            (List.length ds) (pp_report r)

let test_a005_a006_dead_places () =
  let b = B.create "with_dead_places" in
  let lvl = B.int_place b "lvl" in
  (* Never written: only ever read (by the rate). *)
  let speed = B.int_place b ~init:2 "speed" in
  (* Never read: only ever written. *)
  let echo = B.int_place b "echo" in
  B.timed_exp_rate_ir b ~name:"cycle"
    ~rate:E.(OfInt (Mark speed))
    ~guard:(E.Const true)
    E.(Ops [ Set (lvl, Sub (Int 1, Mark lvl)); Set (echo, Int 1) ]);
  let r = check (B.build b) in
  Alcotest.(check bool) "A005 on speed" true
    (List.exists
       (fun (d : D.t) ->
         d.D.severity = D.Warning && d.D.source = D.Place "speed")
       (with_code D.never_written_place r));
  Alcotest.(check bool) "A006 on echo" true
    (List.exists
       (fun (d : D.t) ->
         d.D.severity = D.Warning && d.D.source = D.Place "echo")
       (with_code D.never_read_place r))

(* --- A007: instantaneous loop --- *)

let test_a007_instantaneous_loop () =
  let b = B.create "buggy_loop" in
  let hot = B.int_place b ~init:1 "hot" in
  (* Stays enabled after firing: the stabilization never terminates. *)
  B.instantaneous_ir b ~name:"spin"
    ~guard:E.(Cmp (Mark hot, Eq, Int 1))
    E.(Ops [ Set (hot, Int 1) ]);
  let r = check (B.build b) in
  Alcotest.(check bool) "falls back to sampling" true
    (r.Analysis.Check.mode = Analysis.Space.Sampled);
  match with_code D.instantaneous_loop r with
  | [ d ] -> Alcotest.(check bool) "error" true (d.D.severity = D.Error)
  | ds -> Alcotest.failf "expected exactly one A007, got %d:\n%s"
            (List.length ds) (pp_report r)

(* --- A008: instantaneous tie --- *)

let test_a008_instantaneous_tie () =
  let b = B.create "tied" in
  let pending = B.int_place b ~init:1 "pending" in
  let a_won = B.int_place b "a_won" in
  let b_won = B.int_place b "b_won" in
  (* Both enabled at the initial (vanishing) marking: the executor must
     flip a coin, which the modeler may not have intended. *)
  B.instantaneous_ir b ~name:"claim_a"
    ~guard:E.(Cmp (Mark pending, Eq, Int 1))
    E.(Ops [ Set (pending, Int 0); Set (a_won, Int 1) ]);
  B.instantaneous_ir b ~name:"claim_b"
    ~guard:E.(Cmp (Mark pending, Eq, Int 1))
    E.(Ops [ Set (pending, Int 0); Set (b_won, Int 1) ]);
  let r = check (B.build b) in
  Alcotest.(check bool) "exhaustive mode" true
    (r.Analysis.Check.mode = Analysis.Space.Exhaustive);
  match with_code D.instantaneous_tie r with
  | [ d ] ->
      Alcotest.(check bool) "warning naming both" true
        (d.D.severity = D.Warning
        && message_mentions ~needle:"claim_a" d
        && message_mentions ~needle:"claim_b" d)
  | ds -> Alcotest.failf "expected exactly one A008, got %d:\n%s"
            (List.length ds) (pp_report r)

(* --- A009: unused shared place (composition audit) --- *)

let composed_fixture ~touch_shared () =
  let b = B.create "composed" in
  let root = Compose.Ctx.root b "sys" in
  let shared = Compose.Ctx.int_place root "mailbox" in
  let (_ : unit array) =
    Compose.replicate root "unit" ~n:2 (fun ctx i ->
        let tok = Compose.Ctx.int_place ctx ~init:1 "tok" in
        let touches = touch_shared && i = 0 in
        B.timed_exp_rate_ir (Compose.Ctx.builder ctx)
          ~name:(Compose.Ctx.activity ctx "tick") ~rate:(E.RConst 1.0)
          ~guard:E.(Cmp (Mark tok, Eq, Int 1))
          (E.Ops
             (E.Set (tok, E.Int 0)
             :: (if touches then [ E.Set (shared, E.Int 1) ] else []))))
  in
  (B.build b, Compose.info root)

let test_a009_unused_shared_place () =
  let model, info = composed_fixture ~touch_shared:false () in
  let r = check ~composition:info model in
  (match with_code D.unused_shared_place r with
  | [ d ] ->
      Alcotest.(check bool) "warning at the root node" true
        (d.D.severity = D.Warning && d.D.source = D.Composition "sys");
      Alcotest.(check bool) "names the place" true
        (message_mentions ~needle:"\"mailbox\"" d)
  | ds ->
      Alcotest.failf "expected exactly one A009, got %d:\n%s"
        (List.length ds) (pp_report r));
  (* Touched by one copy's activity: the audit is satisfied. *)
  let model, info = composed_fixture ~touch_shared:true () in
  let r = check ~composition:info model in
  Alcotest.(check (list string)) "no A009 when shared place is used" []
    (List.map (Format.asprintf "%a" D.pp) (with_code D.unused_shared_place r))

(* ITUA declares every activity at its composition node, so A009 can
   attribute a domain's shared place to that domain's subtree: under host
   exclusion nothing in domain 0 touches its [excluded] flag (only the
   root's placement reads it). *)
let test_a009_itua_host_exclusion () =
  let p =
    {
      Itua.Params.default with
      Itua.Params.num_domains = 2;
      hosts_per_domain = 2;
      num_apps = 1;
      num_reps = 2;
      policy = Itua.Params.Host_exclusion;
    }
  in
  let h = Itua.Model.build p in
  let r = check ~composition:h.Itua.Model.composition h.Itua.Model.model in
  Alcotest.(check bool) "A009 names domain 0's excluded flag" true
    (List.exists
       (fun d ->
         d.D.source = D.Composition "security_domains.domain[0]"
         && message_mentions ~needle:"\"security_domains.domain[0].excluded\""
              d)
       (with_code D.unused_shared_place r))

(* --- structural analysis: semiflows, certificates, A010-A012 --- *)

module St = Analysis.Structure

let structure (r : Analysis.Check.t) = r.Analysis.Check.structure

let test_structure_mm1k () =
  let q = Test_models.mm1k ~lambda:2.0 ~mu:3.0 ~k:4 in
  let s = structure (check q.Test_models.q_model) in
  Alcotest.(check (list string))
    "two modes" [ "arrive"; "serve" ]
    (Array.to_list (Array.map (fun md -> md.St.activity) s.St.modes));
  Alcotest.(check bool) "arrive adds one" true
    (s.St.modes.(0).St.delta = [ (0, 1) ]);
  Alcotest.(check bool) "serve removes one" true
    (s.St.modes.(1).St.delta = [ (0, -1) ]);
  (* A single place whose row is [+1 -1] admits no non-negative
     conservation. *)
  Alcotest.(check int) "no P-semiflows" 0 (List.length s.St.p_semiflows);
  Alcotest.(check int) "rank 1" 1 s.St.rank;
  Alcotest.(check int) "no invariant dimension" 0 s.St.invariant_dim

let test_structure_gong () =
  let g = Test_models.gong () in
  let s = structure (check g.Test_models.g_model) in
  Alcotest.(check int) "fifteen modes" 15 (Array.length s.St.modes);
  Alcotest.(check int) "no P-semiflows" 0 (List.length s.St.p_semiflows)

(* The certificate's JSON carries exactly the keys doc/ANALYSIS.md
   ("JSON schema") lists, in that order. *)
let test_structure_json_keys () =
  let q = Test_models.mm1k ~lambda:2.0 ~mu:3.0 ~k:4 in
  let s = structure (check q.Test_models.q_model) in
  match St.to_json s with
  | Report.Json.Obj kvs ->
      Alcotest.(check (list string))
        "documented keys"
        [
          "incidence"; "mode"; "markings"; "unresolved_places"; "int_places";
          "active_places"; "constant_places"; "modes"; "rank";
          "invariant_dimension"; "p_semiflows"; "flows_skipped"; "declared";
          "bounds";
        ]
        (List.map fst kvs)
  | j -> Alcotest.failf "not an object: %s" (Report.Json.to_string j)

let ring_fixture () =
  let b = B.create "ring" in
  let a = B.int_place b ~init:1 "a" in
  let c = B.int_place b "b" in
  B.timed_exp_rate_ir b ~name:"move_ab" ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark a, Eq, Int 1))
    E.(Ops [ Inc (a, Int (-1)); Inc (c, Int 1) ]);
  B.timed_exp_rate_ir b ~name:"move_ba" ~rate:(E.RConst 2.0)
    ~guard:E.(Cmp (Mark c, Eq, Int 1))
    E.(Ops [ Inc (c, Int (-1)); Inc (a, Int 1) ]);
  (B.build b, a, c)

let covered_all s = List.for_all (fun i -> St.covered s i)

let test_p_semiflow_ring () =
  let model, _, _ = ring_fixture () in
  let s = structure (check model) in
  (match s.St.p_semiflows with
  | [ f ] ->
      Alcotest.(check bool) "a + b" true (f.St.flow_terms = [ (0, 1); (1, 1) ]);
      Alcotest.(check int) "token count one" 1 f.St.flow_value
  | fs -> Alcotest.failf "expected one P-semiflow, got %d" (List.length fs));
  Alcotest.(check bool) "both places covered" true
    (covered_all s [ 0; 1 ]);
  Alcotest.(check bool) "both bounded by the flow" true
    (s.St.structural_bound.(0) = Some 1 && s.St.structural_bound.(1) = Some 1)

let test_a010_unbounded () =
  let b = B.create "birth" in
  let pop = B.int_place b "births" in
  B.timed_exp_rate_ir b ~name:"arrive" ~rate:(E.RConst 1.0)
    ~guard:(E.Const true)
    E.(Ops [ Inc (pop, Int 1) ]);
  (* Exhaustive walking aborts at 40 states and falls back to sampling,
     which cannot bound [births]; no P-semiflow covers it either. *)
  let r = Analysis.Check.run ~max_states:40 (B.build b) in
  Alcotest.(check bool) "sampled mode" true
    (r.Analysis.Check.mode = Analysis.Space.Sampled);
  match with_code D.unbounded_place r with
  | [ d ] ->
      Alcotest.(check bool) "warning on the place" true
        (d.D.severity = D.Warning && d.D.source = D.Place "births")
  | ds ->
      Alcotest.failf "expected exactly one A010, got %d:\n%s" (List.length ds)
        (pp_report r)

(* One firing of [flip] forks 13 binary picks into 8,192 outcomes: the
   space is small (8,192 markings, far under the state cap), but the
   walk gives up on the firing's 4096-outcome cap, and the fallback
   reason must say so. *)
let test_fallback_names_outcome_cap () =
  let b = B.create "forks" in
  let bits = List.init 13 (fun i -> B.int_place b (Printf.sprintf "bit%d" i)) in
  B.timed_exp_rate_ir b ~name:"flip" ~rate:(E.RConst 1.0) ~guard:(E.Const true)
    (E.Seq
       (List.map
          (fun p ->
            E.Pick
              [
                (E.Const true, E.Ops [ E.Set (p, E.Int 0) ]);
                (E.Const true, E.Ops [ E.Set (p, E.Int 1) ]);
              ])
          bits));
  let r = check (B.build b) in
  Alcotest.(check bool) "sampled mode" true
    (r.Analysis.Check.mode = Analysis.Space.Sampled);
  Alcotest.(check (option string)) "fallback names the outcome cap"
    (Some "one firing forks into more than 4096 outcomes")
    r.Analysis.Check.fallback

let test_a010_not_on_clean_sampled () =
  (* A bounded model forced into sampled mode must not warn when its
     places are covered by a P-semiflow. *)
  let model, _, _ = ring_fixture () in
  let r = Analysis.Check.run ~max_states:1 model in
  Alcotest.(check bool) "sampled mode" true
    (r.Analysis.Check.mode = Analysis.Space.Sampled);
  Alcotest.(check (list string)) "no A010" []
    (List.map (Format.asprintf "%a" D.pp) (with_code D.unbounded_place r))

let test_a011_dead_effect () =
  let b = B.create "noop" in
  let tick = B.int_place b "tick" in
  B.timed_exp_rate_ir b ~name:"advance" ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark tick, Ge, Int 0))
    E.Skip;
  let r = check (B.build b) in
  match with_code D.dead_effect r with
  | [ d ] ->
      Alcotest.(check bool) "warning on the activity" true
        (d.D.severity = D.Warning && d.D.source = D.Activity "advance")
  | ds ->
      Alcotest.failf "expected exactly one A011, got %d:\n%s" (List.length ds)
        (pp_report r)

let leaky_fixture () =
  let b = B.create "leaky" in
  let pool = B.int_place b ~init:3 "pool" in
  let used = B.int_place b "used" in
  (* Bug: [take] consumes from the pool without accounting in [used]. *)
  B.timed_exp_rate_ir b ~name:"take" ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark pool, Gt, Int 0))
    E.(Ops [ Inc (pool, Int (-1)) ]);
  let law =
    { St.law_name = "pool-conserved"; law_terms = [ (pool, 1); (used, 1) ] }
  in
  (B.build b, law)

let test_a012_invariant_violated () =
  let model, law = leaky_fixture () in
  let r = Analysis.Check.run ~laws:[ law ] model in
  (match with_code D.invariant_violated r with
  | [ d ] ->
      Alcotest.(check bool) "error at the activity" true
        (d.D.severity = D.Error && d.D.source = D.Activity "take");
      Alcotest.(check bool) "names the law and the drift" true
        (message_mentions ~needle:"pool-conserved" d
        && message_mentions ~needle:"-1" d)
  | ds ->
      Alcotest.failf "expected exactly one A012, got %d:\n%s" (List.length ds)
        (pp_report r));
  Alcotest.(check int) "exit code 1" 1 (Analysis.Check.exit_code r)

let test_exit_code_strict () =
  (* Warnings only: exit 0, promoted to 1 under --strict. *)
  let b = B.create "noop" in
  let tick = B.int_place b "tick" in
  B.timed_exp_rate_ir b ~name:"advance" ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark tick, Ge, Int 0))
    E.Skip;
  let r = check (B.build b) in
  Alcotest.(check bool) "warnings present" true
    (Analysis.Check.count D.Warning r > 0);
  Alcotest.(check int) "default exit 0" 0 (Analysis.Check.exit_code r);
  Alcotest.(check int) "strict exit 1" 1
    (Analysis.Check.exit_code ~strict:true r);
  let q = Test_models.mm1k ~lambda:2.0 ~mu:3.0 ~k:3 in
  let clean = check q.Test_models.q_model in
  Alcotest.(check int) "clean stays 0 under strict" 0
    (Analysis.Check.exit_code ~strict:true clean)

let test_itua_certificate () =
  let p =
    {
      Itua.Params.default with
      Itua.Params.num_domains = 2;
      hosts_per_domain = 2;
      num_apps = 1;
      num_reps = 2;
    }
  in
  let h = Itua.Model.build p in
  let r =
    Analysis.Check.run ~composition:h.Itua.Model.composition
      ~laws:(Itua.Invariant.conservation_laws h)
      h.Itua.Model.model
  in
  let s = structure r in
  (* The certificate the paper's model is expected to carry: hosts are
     conserved across corrupt/excluded/good states, replicas across
     running/recovering/waiting, and the manager counters agree. *)
  Alcotest.(check (list string))
    "declared laws, in order"
    [
      "hosts-conserved"; "app[0]-replicas-conserved"; "managers-consistent";
      "domain-managers-consistent"; "corrupt-managers-consistent";
    ]
    (List.map (fun lr -> lr.St.lr_name) s.St.laws);
  List.iter
    (fun lr ->
      Alcotest.(check bool)
        (lr.St.lr_name ^ " holds across every mode")
        true (lr.St.lr_violations = []))
    s.St.laws;
  let hosts = List.hd s.St.laws in
  Alcotest.(check int) "four hosts conserved" 4 hosts.St.lr_value;
  Alcotest.(check (list string)) "no A012" []
    (List.map (Format.asprintf "%a" D.pp) (with_code D.invariant_violated r))

(* --- the executor's invariant-guard mode --- *)

let test_executor_guard_holds () =
  let model, a, c = ring_fixture () in
  let laws = [ { St.law_name = "token"; law_terms = [ (a, 1); (c, 1) ] } ] in
  let cfg = Sim.Executor.config ~horizon:5.0 () in
  let outcome =
    Sim.Executor.run
      ~check_invariants:(St.guard ~laws model)
      ~model ~config:cfg
      ~stream:(Prng.Stream.create ~seed:11L)
      ~observer:Sim.Observer.nop ()
  in
  Alcotest.(check bool) "events happened" true (outcome.Sim.Executor.events > 0)

let test_executor_guard_raises () =
  let model, law = leaky_fixture () in
  let cfg = Sim.Executor.config ~horizon:50.0 () in
  match
    Sim.Executor.run
      ~check_invariants:(St.guard ~laws:[ law ] model)
      ~model ~config:cfg
      ~stream:(Prng.Stream.create ~seed:11L)
      ~observer:Sim.Observer.nop ()
  with
  | (_ : Sim.Executor.outcome) ->
      Alcotest.fail "the leak must trip the invariant guard"
  | exception St.Invariant_violation msg ->
      Alcotest.(check bool) "message names the law" true
        (let n = String.length "pool-conserved" in
         let rec go i =
           i + n <= String.length msg
           && (String.sub msg i n = "pool-conserved" || go (i + 1))
         in
         go 0)

(* --- report plumbing --- *)

let test_deterministic_json () =
  let run () =
    let model, info = composed_fixture ~touch_shared:false () in
    Report.Json.to_string
      (Analysis.Check.to_json (check ~composition:info model))
  in
  Alcotest.(check string) "same bytes across runs" (run ()) (run ())

let test_exit_contract () =
  let b = B.create "buggy" in
  let stock = B.int_place b "stock" in
  (* Bug: enabled whatever the stock, so the effect underflows (A003). *)
  B.timed_exp_rate_ir b ~name:"take" ~rate:(E.RConst 1.0)
    ~guard:(E.Const true)
    E.(Ops [ Inc (stock, Int (-1)) ]);
  let r = check (B.build b) in
  Alcotest.(check bool) "has_errors" true (Analysis.Check.has_errors r);
  Alcotest.(check bool) "errors listed" true
    (List.length (Analysis.Check.errors r) >= 1);
  let q = Test_models.mm1k ~lambda:2.0 ~mu:3.0 ~k:3 in
  Alcotest.(check bool) "clean model has no errors" false
    (Analysis.Check.has_errors (check q.Test_models.q_model))

(* The catalogue lists exactly the live codes, in code order, so a
   retired code cannot linger in it. *)
let test_catalogue_covers_all_codes () =
  Alcotest.(check (list string))
    "live codes"
    [
      D.negative_write; D.dead_activity; D.never_written_place;
      D.never_read_place; D.instantaneous_loop; D.instantaneous_tie;
      D.unused_shared_place; D.unbounded_place; D.dead_effect;
      D.invariant_violated; D.dead_branch; D.negative_capable;
      D.orbit_report; D.broken_symmetry;
    ]
    (List.map fst D.catalogue)

let () =
  Alcotest.run "analysis"
    [
      ( "clean models",
        [
          Alcotest.test_case "mm1k, exhaustive, 5 markings" `Quick
            test_clean_mm1k;
          Alcotest.test_case "gong, exhaustive, 9 markings" `Quick
            test_clean_gong;
        ] );
      ( "derived reads",
        [
          Alcotest.test_case "weight" `Quick test_derived_weight;
          Alcotest.test_case "dist in an untaken branch" `Quick
            test_derived_untaken_branch;
          Alcotest.test_case "weight in an untaken branch" `Quick
            test_derived_untaken_weight;
          Alcotest.test_case "never-enabled activity" `Quick
            test_derived_never_enabled;
        ] );
      ( "closure timing wake-up",
        [
          Alcotest.test_case "closure rate wakes" `Quick test_closure_rate_wakes;
        ] );
      ( "A003 negative writes",
        [
          Alcotest.test_case "underflow" `Quick test_a003_negative_write;
          Alcotest.test_case "Pick branch underflow" `Quick
            test_a003_pick_branch;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "A004 dead activity" `Quick
            test_a004_dead_activity;
          Alcotest.test_case "A005/A006 dead places" `Quick
            test_a005_a006_dead_places;
        ] );
      ( "instantaneous",
        [
          Alcotest.test_case "A007 loop" `Quick test_a007_instantaneous_loop;
          Alcotest.test_case "A008 tie" `Quick test_a008_instantaneous_tie;
        ] );
      ( "composition",
        [
          Alcotest.test_case "A009 unused shared place" `Quick
            test_a009_unused_shared_place;
          Alcotest.test_case "A009 on ITUA, host excl." `Quick
            test_a009_itua_host_exclusion;
        ] );
      ( "structure",
        [
          Alcotest.test_case "mm1k incidence and rank" `Quick
            test_structure_mm1k;
          Alcotest.test_case "gong fifteen modes" `Quick test_structure_gong;
          Alcotest.test_case "JSON keys as documented" `Quick
            test_structure_json_keys;
          Alcotest.test_case "token ring P-semiflow" `Quick
            test_p_semiflow_ring;
          Alcotest.test_case "A010 unbounded birth" `Quick
            test_a010_unbounded;
          Alcotest.test_case "A010 silent when covered" `Quick
            test_a010_not_on_clean_sampled;
          Alcotest.test_case "fallback names outcome cap" `Quick
            test_fallback_names_outcome_cap;
          Alcotest.test_case "A011 dead effect" `Quick test_a011_dead_effect;
          Alcotest.test_case "A012 violated law" `Quick
            test_a012_invariant_violated;
          Alcotest.test_case "exit code strictness" `Quick
            test_exit_code_strict;
          Alcotest.test_case "ITUA conservation certificate" `Quick
            test_itua_certificate;
        ] );
      ( "executor guard",
        [
          Alcotest.test_case "proven invariant holds" `Quick
            test_executor_guard_holds;
          Alcotest.test_case "leak trips the guard" `Quick
            test_executor_guard_raises;
        ] );
      ( "report",
        [
          Alcotest.test_case "deterministic JSON" `Quick
            test_deterministic_json;
          Alcotest.test_case "exit contract" `Quick test_exit_contract;
          Alcotest.test_case "catalogue complete" `Quick
            test_catalogue_covers_all_codes;
        ] );
    ]
