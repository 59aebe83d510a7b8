(* Tests for the effect IR: interpreter semantics, static read/write
   extraction, the compiled flat-array programs (pinned bit-identical
   against the interpreter, and compiled once per shared node), the
   exact A013-A015 diagnostics (one deliberately broken fixture per
   code), exact-law span skipping, and Rat normalization edge cases. *)

module B = San.Model.Builder
module M = San.Marking
module E = San.Effect
module D = Analysis.Diagnostic
module St = Analysis.Structure

let with_code code (r : Analysis.Check.t) =
  List.filter
    (fun (d : D.t) -> d.D.code = code)
    r.Analysis.Check.diagnostics

let message_mentions ~needle (d : D.t) =
  let hay = d.D.message and n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* --- IR interpreter semantics --- *)

let two_places () =
  let b = B.create "ir" in
  let p = B.int_place b ~init:3 "p" in
  let q = B.int_place b "q" in
  (b, p, q)

let marking b =
  let model = B.build b in
  (model, San.Model.initial_marking model)

let test_eval_holds () =
  let b, p, q = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) ~reads:[] E.Skip;
  let _, m = marking b in
  Alcotest.(check int) "arith" 7 (E.eval m E.(Add (Mark p, Mul (Int 2, Int 2))));
  Alcotest.(check int) "sub" 3 (E.eval m E.(Sub (Mark p, Mark q)));
  Alcotest.(check int) "indicator true" 1
    (E.eval m E.(Ind (Cmp (Mark p, Ge, Int 3))));
  Alcotest.(check int) "indicator false" 0
    (E.eval m E.(Ind (Cmp (Mark p, Lt, Int 3))));
  Alcotest.(check bool) "all" true
    (E.holds m E.(All [ Cmp (Mark p, Eq, Int 3); Not (Cmp (Mark q, Ne, Int 0)) ]));
  Alcotest.(check bool) "any empty is false" false (E.holds m (E.Any []))

let test_apply_ops_order () =
  let b, p, q = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) ~reads:[] E.Skip;
  let _, m = marking b in
  (* Ops run in order: the Inc sees the Set's value. *)
  E.apply E.null_ctx
    E.(Ops [ Set (p, Int 10); Inc (q, Mark p) ])
    m;
  Alcotest.(check int) "set then inc" 10 (M.get m q)

let test_outcomes_pick () =
  let b, p, _ = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) ~reads:[] E.Skip;
  let _, m = marking b in
  let outs =
    E.outcomes
      E.(
        Pick
          [
            (Const true, Ops [ Set (p, Int 0) ]);
            (Const false, Ops [ Set (p, Int 1) ]);
            (Const true, Ops [ Set (p, Int 2) ]);
          ])
      m
  in
  let outs =
    List.sort compare
      (List.map (fun (w, m') -> (M.get m' p, w)) outs)
  in
  Alcotest.(check (list (pair int (float 1e-9))))
    "feasible branches, uniform" [ (0, 0.5); (2, 0.5) ] outs

let test_static_reads_writes () =
  let b, p, q = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) ~reads:[] E.Skip;
  let _, _ = marking b in
  let eff = E.(Ops [ Inc (p, Mark q) ]) in
  Alcotest.(check (list int))
    "inc reads its target and the expression"
    (List.sort compare [ San.Place.uid p; San.Place.uid q ])
    (E.static_reads eff);
  Alcotest.(check (list int)) "writes" [ San.Place.uid p ] (E.static_writes eff)

(* --- compiled programs vs the interpreter, bit-identical --- *)

(* A model that exercises every IR feature the compiler touches:
   marking-dependent branches, Picks (stream draws), case weights and
   multiple cases, plus float writes. *)
let branching_model () =
  let b = B.create "branching" in
  let p = B.int_place b ~init:5 "p" in
  let q = B.int_place b "q" in
  let acc = B.float_place b "acc" in
  B.timed_exp_cases_rate_ir b ~name:"churn"
    ~rate:E.(RExpr (FAdd (Flt 1.0, FMul (Flt 0.1, OfInt (Mark p)))))
    ~guard:E.(Cmp (Mark p, Gt, Int 0))
    ~reads:[ San.Place.P p; San.Place.P q ]
    [
      ( 2.0,
        E.(
          Seq
            [
              If
                ( Cmp (Mark q, Lt, Int 3),
                  Ops [ Inc (q, Int 1) ],
                  Ops [ Set (q, Int 0) ] );
              Ops [ FInc (acc, OfInt (Mark q)) ];
            ]) );
      ( 1.0,
        E.(
          Pick
            [
              (Cmp (Mark p, Gt, Int 1), Ops [ Inc (p, Int (-1)) ]);
              (Const true, Ops [ Inc (q, Int 2) ]);
            ]) );
    ];
  B.timed_exp_rate_ir b ~name:"refill"
    ~rate:(E.RConst 0.7)
    ~guard:E.(Cmp (Mark p, Lt, Int 5))
    ~reads:[ San.Place.P p ]
    E.(Ops [ Inc (p, Int 1) ]);
  B.build b

(* The initial marking, the marking after every firing of a 50h run, and
   every (p, q) in [0, 5] x [0, 4]: the grid also reaches the markings
   where a Pick has a single feasible branch. *)
let visited_markings model =
  let seen = ref [] in
  let observer =
    { Sim.Observer.nop with on_fire = (fun _ _ _ m -> seen := M.copy m :: !seen) }
  in
  let out =
    Sim.Executor.run ~model
      ~config:(Sim.Executor.config ~horizon:50.0 ())
      ~stream:(Prng.Stream.create ~seed:42L)
      ~observer ()
  in
  let p = San.Model.find_place model "p" and q = San.Model.find_place model "q" in
  let grid =
    List.concat_map
      (fun vp ->
        List.init 5 (fun vq ->
            let m = San.Model.initial_marking model in
            M.set m p vp;
            M.set m q vq;
            m))
      (List.init 6 Fun.id)
  in
  ( (San.Model.initial_marking model :: List.rev !seen) @ grid,
    out.Sim.Executor.events )

(* The executor fires a case by running its compiled program. At every
   visited marking, each case of each enabled activity runs once
   as its program and once through the interpreter, from copies of the
   marking and same-seeded streams: the markings must agree bit for bit
   and both streams must be left at the same position. *)
let test_compiled_path_bit_identical () =
  let model = branching_model () in
  let markings, events = visited_markings model in
  Alcotest.(check bool) "some events fired" true (events > 10);
  let draws = ref 0 in
  List.iteri
    (fun i m ->
      Array.iter
        (fun (a : San.Activity.t) ->
          if a.enabled m then
            Array.iteri
              (fun case (c : San.Activity.case) ->
                let run exec =
                  let m' = M.copy m and stream = Prng.Stream.of_int_seed i in
                  exec { E.time = 0.0; stream = Some stream } m';
                  ( M.int_snapshot m',
                    Array.map Int64.bits_of_float (M.float_snapshot m'),
                    Prng.Stream.bits64 stream )
                in
                let ints_c, floats_c, next_c =
                  run (fun ctx m -> E.run_prog ctx c.San.Activity.prog m)
                in
                let ints_i, floats_i, next_i =
                  run (fun ctx m -> E.apply ctx c.San.Activity.effect m)
                in
                let label =
                  Printf.sprintf "%s case %d, marking %d" a.San.Activity.name
                    case i
                in
                Alcotest.(check (array int)) (label ^ ": ints") ints_i ints_c;
                Alcotest.(check (array int64))
                  (label ^ ": float bits") floats_i floats_c;
                Alcotest.(check int64) (label ^ ": stream position") next_i next_c;
                if next_c <> Prng.Stream.bits64 (Prng.Stream.of_int_seed i) then
                  incr draws)
              a.cases)
        (San.Model.activities model))
    markings;
  Alcotest.(check bool) "some Pick drew from the stream" true (!draws > 0)

(* --- compilation once per distinct node --- *)

(* Effect nodes keyed by physical identity. *)
module Phys = Hashtbl.Make (struct
  type t = E.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let itua_params ~policy nd nh na nr =
  {
    Itua.Params.default with
    Itua.Params.num_domains = nd;
    hosts_per_domain = nh;
    num_apps = na;
    num_reps = nr;
    policy;
  }

let policies = [ Itua.Params.Domain_exclusion; Itua.Params.Host_exclusion ]

(* The builder compiles each case under a per-build memo. Whatever the
   sharing, every case's program must equal a fresh, unmemoized compile
   of its own effect. *)
let check_progs_fresh label model =
  Array.iter
    (fun (a : San.Activity.t) ->
      Array.iteri
        (fun i (c : San.Activity.case) ->
          if c.San.Activity.prog <> E.compile c.San.Activity.effect then
            Alcotest.failf "%s: %s case %d differs from a fresh compile" label
              a.San.Activity.name i)
        a.cases)
    (San.Model.activities model)

let test_shared_compile_matches_fresh () =
  List.iter
    (fun policy ->
      let h = Itua.Model.build (itua_params ~policy 2 3 3 4) in
      check_progs_fresh "itua" h.Itua.Model.model;
      (* Responses to detections in one domain run the domain's
         exclusion term: one program, compiled once. *)
      if policy = Itua.Params.Domain_exclusion then begin
        let prog name =
          (San.Model.find_activity h.Itua.Model.model name).cases.(0).prog
        in
        Alcotest.(check bool) "one program for one shared term" true
          (prog "security_domains.domain[1].host[0].respond_host_detect"
          == prog "security_domains.domain[1].host[2].respond_mgr_detect")
      end)
    policies;
  let goldens = Test_models.golden_models () in
  Alcotest.(check bool) "golden models found" true (List.length goldens >= 4);
  List.iter (fun (f, model) -> check_progs_fresh f model) goldens

(* The exclusion cascade is one term per host and per domain, shared by
   every response activity. Rebuilding it inside each response made the
   IR quadratic (about 441k distinct effect nodes on 1x12x8x7); shared,
   the count is linear in hosts x replica slots. *)
let test_cascade_nodes_linear () =
  let nd, nh, na, nr = (1, 12, 8, 7) in
  List.iter
    (fun policy ->
      let h = Itua.Model.build (itua_params ~policy nd nh na nr) in
      let seen = Phys.create 4096 in
      let rec visit e =
        if not (Phys.mem seen e) then begin
          Phys.add seen e ();
          match e with
          | E.Skip | E.Ops _ -> ()
          | E.Seq es -> List.iter visit es
          | E.If (_, a, b) ->
              visit a;
              visit b
          | E.Pick bs -> List.iter (fun (_, e) -> visit e) bs
        end
      in
      Array.iter
        (fun (a : San.Activity.t) ->
          Array.iter (fun (c : San.Activity.case) -> visit c.effect) a.cases)
        (San.Model.activities h.Itua.Model.model);
      let hosts_x_slots = nd * nh * na * nr in
      let nodes = Phys.length seen in
      if nodes > 16 * hosts_x_slots then
        Alcotest.failf "%d distinct effect nodes for %d hosts x slots" nodes
          hosts_x_slots)
    policies

(* --- A013: declared-reads/writes vs IR, exact --- *)

let test_a013_guard_read_undeclared () =
  let b = B.create "a013-guard" in
  let gate = B.int_place b ~init:1 "gate" in
  let tokens = B.int_place b ~init:1 "tokens" in
  (* Bug: the guard reads [gate] but declares only [tokens]. *)
  B.timed_exp_rate_ir b ~name:"tick"
    ~rate:(E.RConst 1.0)
    ~guard:E.(All [ Cmp (Mark gate, Eq, Int 1); Cmp (Mark tokens, Gt, Int 0) ])
    ~reads:[ San.Place.P tokens ]
    E.(Ops [ Inc (tokens, Int (-1)) ]);
  let r = Analysis.Check.run (B.build b) in
  match
    List.filter
      (fun d -> d.D.severity = D.Error)
      (with_code D.ir_mismatch r)
  with
  | [ d ] ->
      Alcotest.(check bool) "names the place" true
        (message_mentions ~needle:"\"gate\"" d);
      Alcotest.(check bool) "says guard" true
        (message_mentions ~needle:"guard reads" d)
  | ds -> Alcotest.failf "expected one A013 error, got %d" (List.length ds)

let test_a013_effect_reads_aggregated () =
  let b = B.create "a013-effect" in
  let src1 = B.int_place b ~init:2 "src1" in
  let src2 = B.int_place b ~init:2 "src2" in
  let dst = B.int_place b "dst" in
  (* The effect reads src1/src2 without declaring them: one aggregated
     Info, not two warnings. *)
  B.timed_exp_rate_ir b ~name:"sum"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark dst, Eq, Int 0))
    ~reads:[ San.Place.P dst ]
    E.(Ops [ Set (dst, Add (Mark src1, Mark src2)) ]);
  let r = Analysis.Check.run (B.build b) in
  (match with_code D.ir_mismatch r with
  | [ d ] ->
      Alcotest.(check bool) "info severity" true (d.D.severity = D.Info);
      Alcotest.(check bool) "aggregated count" true
        (message_mentions ~needle:"2 place(s)" d)
  | ds -> Alcotest.failf "expected one A013 info, got %d" (List.length ds));
  (* Effect reads are A013's alone: A001 traces only rates and weights. *)
  Alcotest.(check (list string)) "no A001 for effect reads" []
    (List.map
       (fun d -> d.D.message)
       (with_code D.undeclared_read r))

let test_a013_stale_wakeup_write () =
  let b = B.create "a013-write" in
  let sem = B.int_place b ~init:1 "sem" in
  let work = B.int_place b ~init:1 "work" in
  (* The writer flips [sem]; the reader's guard reads [sem] without
     declaring it, so the write cannot wake it. *)
  B.timed_exp_rate_ir b ~name:"writer"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark work, Gt, Int 0))
    ~reads:[ San.Place.P work ]
    E.(Ops [ Inc (work, Int (-1)); Set (sem, Int 0) ]);
  B.timed_exp_rate_ir b ~name:"reader"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark sem, Eq, Int 1))
    ~reads:[] (* bug: sem missing *)
    E.Skip;
  let r = Analysis.Check.run (B.build b) in
  let errors =
    List.filter
      (fun d ->
        d.D.severity = D.Error
        && message_mentions ~needle:"effect writes" d)
      (with_code D.ir_mismatch r)
  in
  match errors with
  | [ d ] ->
      Alcotest.(check bool) "names sem" true
        (message_mentions ~needle:"\"sem\"" d);
      Alcotest.(check bool) "names the reader" true
        (message_mentions ~needle:"reader" d)
  | ds ->
      Alcotest.failf "expected one A013 stale-wake-up error, got %d: %s"
        (List.length ds)
        (String.concat "; " (List.map (fun d -> d.D.message) ds))

(* --- A014: statically dead branch --- *)

let test_a014_dead_branch () =
  let b = B.create "a014" in
  let p = B.int_place b ~init:1 "p" in
  B.timed_exp_rate_ir b ~name:"tick"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark p, Gt, Int 0))
    ~reads:[ San.Place.P p ]
    (* The then-branch is statically unreachable. *)
    E.(If (Const false, Ops [ Set (p, Int 9) ], Ops [ Set (p, Int 0) ]));
  let r = Analysis.Check.run (B.build b) in
  match with_code D.dead_branch r with
  | [ d ] ->
      Alcotest.(check bool) "info severity" true (d.D.severity = D.Info);
      Alcotest.(check bool) "says statically dead" true
        (message_mentions ~needle:"statically dead" d)
  | ds -> Alcotest.failf "expected one A014, got %d" (List.length ds)

(* --- A015: delta that can drive a place negative --- *)

let test_a015_negative_capable () =
  let b = B.create "a015" in
  let p = B.int_place b "p" in
  let tick = B.int_place b ~init:1 "tick" in
  (* The guard pins p = 0, and the effect decrements it anyway. *)
  B.timed_exp_rate_ir b ~name:"drain"
    ~rate:(E.RConst 1.0)
    ~guard:E.(All [ Cmp (Mark p, Eq, Int 0); Cmp (Mark tick, Gt, Int 0) ])
    ~reads:[ San.Place.P p; San.Place.P tick ]
    E.(Ops [ Inc (p, Int (-1)) ]);
  let r = Analysis.Check.run (B.build b) in
  match with_code D.negative_capable r with
  | [ d ] ->
      Alcotest.(check bool) "warning severity" true
        (d.D.severity = D.Warning);
      Alcotest.(check bool) "explains the pin" true
        (message_mentions ~needle:"guard pins it at 0" d)
  | ds -> Alcotest.failf "expected one A015, got %d" (List.length ds)

(* --- exact laws: a law in the invariant basis is proven like any other --- *)

let test_law_in_basis () =
  let b = B.create "conserved" in
  let here = B.int_place b ~init:1 "here" in
  let there = B.int_place b "there" in
  B.timed_exp_rate_ir b ~name:"go"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark here, Gt, Int 0))
    ~reads:[ San.Place.P here; San.Place.P there ]
    E.(Ops [ Inc (here, Int (-1)); Inc (there, Int 1) ]);
  B.timed_exp_rate_ir b ~name:"back"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark there, Gt, Int 0))
    ~reads:[ San.Place.P here; San.Place.P there ]
    E.(Ops [ Inc (there, Int (-1)); Inc (here, Int 1) ]);
  let law =
    { St.law_name = "token"; law_terms = [ (here, 1); (there, 1) ] }
  in
  let r = Analysis.Check.run ~laws:[ law ] (B.build b) in
  let s = r.Analysis.Check.structure in
  Alcotest.(check bool) "exact incidence" true (s.St.incidence = St.Exact);
  (match s.St.laws with
  | [ lr ] ->
      Alcotest.(check string) "proven symbolically"
        "proven symbolically over the effect IR" lr.St.lr_how;
      Alcotest.(check (list (triple string int int))) "no violations" [] lr.St.lr_violations
  | _ -> Alcotest.fail "expected one law report");
  Alcotest.(check (list string)) "no sampled fallbacks" []
    r.Analysis.Check.sampled_fallbacks

let test_law_proven_symbolically () =
  (* A law that is NOT a semiflow of the atom rows taken separately
     per-branch would still be conserved; here we use a conditional
     effect whose branches both conserve, forcing the symbolic
     interpreter (not the span test) to answer. *)
  let b = B.create "cond-conserved" in
  let x = B.int_place b ~init:2 "x" in
  let y = B.int_place b "y" in
  let mode = B.int_place b ~init:1 "mode" in
  B.timed_exp_rate_ir b ~name:"shuffle"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark x, Gt, Int 0))
    ~reads:[ San.Place.P x; San.Place.P y; San.Place.P mode ]
    E.(
      If
        ( Cmp (Mark mode, Eq, Int 1),
          Ops [ Inc (x, Int (-1)); Inc (y, Int 1); Set (mode, Int 0) ],
          Ops [ Inc (x, Int (-1)); Inc (y, Int 1); Set (mode, Int 1) ] ));
  let law = { St.law_name = "xy"; law_terms = [ (x, 1); (y, 1) ] } in
  let r = Analysis.Check.run ~laws:[ law ] (B.build b) in
  let s = r.Analysis.Check.structure in
  match s.St.laws with
  | [ lr ] ->
      Alcotest.(check (list (triple string int int))) "no violations" [] lr.St.lr_violations;
      Alcotest.(check (list string)) "no sampled fallbacks" []
        r.Analysis.Check.sampled_fallbacks
  | _ -> Alcotest.fail "expected one law report"

(* --- ir dump determinism --- *)

let test_ir_dump_deterministic () =
  let model = branching_model () in
  let d1 = Analysis.Ir_dump.dump model in
  let d2 = Analysis.Ir_dump.dump model in
  let render d =
    Report.Json.to_string (Analysis.Ir_dump.to_json d)
  in
  Alcotest.(check string) "stable JSON" (render d1) (render d2);
  Alcotest.(check int) "both activities present" 2
    (List.length d1.Analysis.Ir_dump.activities);
  let churn = List.hd d1.Analysis.Ir_dump.activities in
  Alcotest.(check string) "name" "churn"
    churn.Analysis.Ir_dump.ad_name;
  Alcotest.(check bool) "guard reads p" true
    (List.mem "p" churn.Analysis.Ir_dump.ad_guard_reads)

(* --- Rat edge cases --- *)

let rat = Alcotest.testable Analysis.Rat.pp Analysis.Rat.equal

let test_rat_normalization () =
  let open Analysis.Rat in
  Alcotest.check rat "negative denominator" (make (-1) 2) (make 2 (-4));
  Alcotest.check rat "double negative" (make 1 2) (make (-3) (-6));
  Alcotest.(check string) "printed normalized" "-1/2"
    (to_string (make 3 (-6)));
  Alcotest.(check string) "integer form" "4" (to_string (make 12 3));
  Alcotest.check rat "zero normalizes" zero (make 0 (-7));
  Alcotest.(check int) "sign of negative" (-1) (sign (make 1 (-3)));
  Alcotest.(check bool) "equal is structural on normal forms" true
    (equal (make 2 4) (make 1 2));
  Alcotest.check rat "inv keeps den positive" (make (-2) 1) (inv (make 1 (-2)))

let test_rat_arithmetic_near_caps () =
  let open Analysis.Rat in
  (* Coefficient magnitudes near the Farkas enumeration caps (hundreds
     of modes, unit deltas): sums over ~512 distinct prime-ish
     denominators must stay exact on native ints. *)
  let dens = List.init 512 (fun i -> (2 * i) + 3) in
  let s = List.fold_left (fun acc d -> add acc (make 1 d)) zero dens in
  let s' = List.fold_left (fun acc d -> sub acc (make 1 d)) s dens in
  Alcotest.check rat "telescoping sum cancels exactly" zero s';
  (* Cross-multiplication in [compare] must not overflow for the
     magnitudes the incidence matrices produce. *)
  let big = make 1_000_003 999_983 in
  Alcotest.(check int) "compare exact near 1" 1 (compare big one);
  Alcotest.(check int) "compare symmetric" (-1) (compare one big);
  Alcotest.check rat "mul/div round-trips" big (div (mul big big) big)

let () =
  Alcotest.run "effect"
    [
      ( "ir semantics",
        [
          Alcotest.test_case "eval and holds" `Quick test_eval_holds;
          Alcotest.test_case "ops order" `Quick test_apply_ops_order;
          Alcotest.test_case "pick outcomes" `Quick test_outcomes_pick;
          Alcotest.test_case "static reads/writes" `Quick
            test_static_reads_writes;
        ] );
      ( "compiled executor",
        [
          Alcotest.test_case "bit-identical trajectories" `Quick
            test_compiled_path_bit_identical;
          Alcotest.test_case "shared compile matches fresh" `Quick
            test_shared_compile_matches_fresh;
          Alcotest.test_case "cascade nodes linear" `Quick
            test_cascade_nodes_linear;
        ] );
      ( "A013",
        [
          Alcotest.test_case "guard read undeclared" `Quick
            test_a013_guard_read_undeclared;
          Alcotest.test_case "effect reads aggregated" `Quick
            test_a013_effect_reads_aggregated;
          Alcotest.test_case "stale wake-up write" `Quick
            test_a013_stale_wakeup_write;
        ] );
      ( "A014",
        [ Alcotest.test_case "dead branch" `Quick test_a014_dead_branch ] );
      ( "A015",
        [
          Alcotest.test_case "negative-capable delta" `Quick
            test_a015_negative_capable;
        ] );
      ( "exact laws",
        [
          Alcotest.test_case "basis law proven symbolically" `Quick
            test_law_in_basis;
          Alcotest.test_case "proven symbolically" `Quick
            test_law_proven_symbolically;
        ] );
      ( "ir dump",
        [
          Alcotest.test_case "deterministic" `Quick
            test_ir_dump_deterministic;
        ] );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic near caps" `Quick
            test_rat_arithmetic_near_caps;
        ] );
    ]
